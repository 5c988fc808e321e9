"""tar-to-flash: untar an archive onto the USB 1.1 flash disk (Table 3).

Writes a synthetic archive file by file through ``usb_bulk_msg`` at
USB 1.1 full-speed bandwidth (~1.2 MB/s of bulk payload), with a small
per-file CPU cost for tar's header processing.  The paper reports
relative performance (elapsed time ratio) and CPU utilization.
"""

from ..devices import UsbFlashDiskModel
from ..trace import begin_trace, finish_trace
from .result import RunWindow, rig_result

BLOCK_SIZE = UsbFlashDiskModel.BLOCK_SIZE
TAR_HEADER_CPU_NS = 20_000


def tar_to_flash(rig, archive_bytes=2 * 1024 * 1024, file_size=64 * 1024,
                 trace=None):
    """Untar ``archive_bytes`` of payload; returns the result row."""
    kernel = rig.kernel
    session = begin_trace(kernel, trace)
    if rig.endpoint is None:
        raise RuntimeError("no USB device enumerated")

    window = RunWindow(kernel)
    lba = 0
    written = 0
    nfiles = 0
    retried = 0
    while written < archive_bytes:
        this_file = min(file_size, archive_bytes - written)
        kernel.consume(TAR_HEADER_CPU_NS, busy=True, category="tar")
        blocks = (this_file + BLOCK_SIZE - 1) // BLOCK_SIZE
        # Write the file in bulk-transfer-sized chunks (16 KiB each).
        offset = 0
        while offset < blocks * BLOCK_SIZE:
            chunk_blocks = min(32, blocks - offset // BLOCK_SIZE)
            payload = bytes((nfiles + offset) & 0xFF
                            for _ in range(chunk_blocks * BLOCK_SIZE))
            status, _n = rig.family.write_blocks(
                rig, lba + offset // BLOCK_SIZE, chunk_blocks, payload,
                timeout_ms=30_000)
            if status != 0:
                if rig.recovery_pending():
                    # Supervised restart in progress: re-queue this
                    # chunk once the driver is back instead of failing
                    # the whole archive.
                    retried += 1
                    kernel.run_for_ms(1)
                    continue
                raise RuntimeError("bulk write failed: %d" % status)
            offset += chunk_blocks * BLOCK_SIZE
        lba += blocks
        written += this_file
        nfiles += 1

    result = rig_result(
        rig, window, "tar", lost=retried,
        bytes_moved=written,
        packets=nfiles,
        throughput_mbps=written * 8 / window.elapsed_s() / 1e6,
        extra={"files": nfiles,
               "disk_blocks_written": rig.extra["disk"].writes},
    )
    finish_trace(session, result)
    return result
