"""mpg123: 256 Kbps MP3 playback through the sound stack (Table 3).

Decoding a 256 Kbps stream to 44.1 kHz stereo 16-bit PCM costs a small
amount of CPU per chunk (mpg123 used ~0-0.1% of a 3 GHz CPU); the PCM
write path then blocks on the ring buffer at the hardware's pace, so
the workload is real-time-bound, exactly like the paper's.
"""

from ..kernel.sound import SNDRV_PCM_TRIGGER_START, SNDRV_PCM_TRIGGER_STOP
from ..trace import begin_trace, finish_trace
from .result import RunWindow, rig_result

MP3_BITRATE = 256_000
PCM_RATE = 44_100
PCM_CHANNELS = 2
PCM_SAMPLE_BYTES = 2

# Decode cost: ~2 ms CPU per second of audio on period-2005 hardware.
DECODE_NS_PER_AUDIO_SECOND = 2_000_000


def mpg123_play(rig, duration_s=10.0, period_bytes=4096, periods=4,
                trace=None):
    """Play ``duration_s`` seconds of audio; returns the result row."""
    kernel = rig.kernel
    session = begin_trace(kernel, trace)
    cards = kernel.sound.cards
    if not cards:
        raise RuntimeError("no sound card registered")
    substream = cards[0].pcms[0].playback

    window = RunWindow(kernel)
    sound = kernel.sound
    ret = sound.pcm_open(substream)
    if ret != 0:
        raise RuntimeError("pcm_open failed: %d" % ret)
    ret = sound.pcm_hw_params(substream, PCM_RATE, PCM_CHANNELS,
                              PCM_SAMPLE_BYTES, period_bytes, periods)
    if ret != 0:
        raise RuntimeError("pcm_hw_params failed: %d" % ret)
    ret = sound.pcm_prepare(substream)
    if ret != 0:
        raise RuntimeError("pcm_prepare failed: %d" % ret)
    ret = sound.pcm_trigger(substream, SNDRV_PCM_TRIGGER_START)
    if ret != 0:
        raise RuntimeError("pcm_trigger(start) failed: %d" % ret)

    bytes_per_second = PCM_RATE * PCM_CHANNELS * PCM_SAMPLE_BYTES
    total_bytes = int(duration_s * bytes_per_second)
    chunk = period_bytes
    written = 0
    dropped = 0
    while written < total_bytes:
        n = min(chunk, total_bytes - written)
        # MP3 decode cost for this chunk.
        kernel.consume(
            int(DECODE_NS_PER_AUDIO_SECOND * n / bytes_per_second),
            busy=True, category="mpg123",
        )
        accepted = sound.pcm_write(substream, n)
        if accepted <= 0:
            if rig.recovery_pending():
                # Supervised restart in progress: the chunk is dropped
                # audio, not end-of-stream.  Let the recovery work item
                # run and carry on with the next chunk.
                dropped += 1
                written += n
                kernel.run_for_ms(1)
                continue
            break
        written += accepted

    sound.pcm_trigger(substream, SNDRV_PCM_TRIGGER_STOP)
    sound.pcm_close(substream)

    result = rig_result(
        rig, window, "mpg123", lost=dropped,
        bytes_moved=written,
        throughput_mbps=written * 8 / window.elapsed_s() / 1e6,
        extra={
            "periods_elapsed": substream.runtime.periods_elapsed,
            "device_interrupts": getattr(rig.device, "period_interrupts", 0),
        },
    )
    finish_trace(session, result)
    return result
