"""Per-CPU SkbPool shards: CPU-local allocation, recycle-to-owner,
shared-arena fallback, and the per-CPU hit-rate counters surfaced in
WorkloadResult."""

from repro.kernel import make_kernel


def test_shard_recycles_to_owning_arena():
    kernel = make_kernel(nr_cpus=2)
    shared = kernel.net.get_skb_pool()
    shard = kernel.net.get_skb_pool(cpu=1)
    assert shard is not shared
    assert shard.fallback is shared

    skb = shard.alloc(512)
    assert shard.hits == 1 and shared.hits == 0
    skb.recycle()
    # The slot returns to the shard that handed it out, never to the
    # shared pool -- buffers don't migrate between arenas.
    assert shard.recycles == 1
    assert shared.recycles == 0


def test_exhausted_shard_falls_back_to_shared_arena():
    kernel = make_kernel(nr_cpus=2)
    shared = kernel.net.get_skb_pool()
    shard = kernel.net.get_skb_pool(cpu=0)

    held = [shard.alloc(256) for _ in range(shard.count)]
    assert shard.hits == shard.count and shard.misses == 0

    spill = shard.alloc(256)
    assert shard.misses == 1
    assert shared.hits == 1
    # The spilled skb belongs to the shared arena: recycling it must
    # credit the shared pool, not the exhausted shard.
    spill.recycle()
    assert shared.recycles == 1
    assert shard.recycles == 0
    held[0].recycle()
    assert shard.recycles == 1


def test_fallback_chain_ends_in_private_buffer():
    kernel = make_kernel(nr_cpus=2)
    shared = kernel.net.get_skb_pool()
    shard = kernel.net.get_skb_pool(cpu=0)
    held = [shard.alloc(64) for _ in range(shard.count)]
    held += [shared.alloc(64) for _ in range(shared.count)]

    skb = shard.alloc(64)
    assert shard.misses == 1 and shared.misses == 1
    assert skb._pool is None  # private bytearray skb
    skb.recycle()  # no-op, never corrupts an arena free list
    assert shared.recycles == 0 and shard.recycles == 0


def test_alloc_rx_skb_selects_current_cpu_shard():
    kernel = make_kernel(nr_cpus=2)
    kernel.net.get_skb_pool()  # shared pool exists up front
    allocated = []

    def rx_work():
        allocated.append(kernel.net.alloc_rx_skb(1500))

    kernel.events.schedule_after(0, rx_work, cpu=1)
    kernel.run_for_ms(1)
    assert allocated
    shard = kernel.net.cpu_skb_pools[1]
    assert shard.hits == 1
    assert 0 not in kernel.net.cpu_skb_pools


def test_skb_pool_stats_reports_every_arena():
    kernel = make_kernel(nr_cpus=4)
    kernel.net.get_skb_pool(cpu=2).alloc(100)
    kernel.net.get_skb_pool(cpu=0)
    stats = kernel.net.skb_pool_stats()
    assert set(stats) == {"shared", "cpu0", "cpu2"}
    assert stats["cpu2"] == {"hits": 1, "misses": 0, "recycles": 0}


def test_workload_result_surfaces_per_cpu_hit_rates():
    """An SMP multi-queue receive run reports a hit rate per shard."""
    from repro.workloads.netperf import netperf_recv
    from repro.workloads.rigs import make_e1000_rig

    rig = make_e1000_rig(irq_mode="napi", nr_cpus=2, num_queues=2)
    rig.insmod()
    result = netperf_recv(rig, duration_s=0.02)
    assert result.packets > 0
    _rate, rates = result.skb_pool_hit_rates()
    assert rates, "no per-shard hit rates reported"
    assert set(rates) <= {"shared", "cpu0", "cpu1"}
    # Steady-state rx allocates CPU-locally: every shard that saw
    # traffic ran essentially all-hits.
    for label, rate in rates.items():
        if label != "shared":
            assert rate > 0.9, (label, rate)
    assert "skb_pool_cpu_hit_rates" in result.row()
