"""CPU accounting invariant: the aggregate equals the sum of the vCPUs.

Every charge site (``consume``, ``Kernel.charge``, the inlined irq-entry
charge) books the current vCPU's account and the kernel-wide aggregate
``kernel.cpu``.  On a one-vCPU kernel those are one object; on SMP they
are separate and the aggregate must still equal the per-CPU sum, in busy
ns and in every category, after any mix of charges, irq entries and
CPU-targeted events.
"""

import functools

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernel import make_kernel
from repro.kernel.irq import IRQ_HANDLED

CATEGORIES = ("kernel", "io", "irq", "softirq", "xpc")
IRQ = 5

_ns = st.integers(min_value=0, max_value=50_000)
_cat = st.sampled_from(CATEGORIES)
_cpu = st.integers(min_value=0, max_value=3)

_ops = st.one_of(
    st.tuples(st.just("consume"), _ns, st.booleans(), _cat),
    st.tuples(st.just("charge"), _ns, _cat),
    st.tuples(st.just("irq"), st.one_of(st.none(), _cpu), _ns),
    st.tuples(st.just("event"), _cpu, _ns, _cat, st.booleans()),
    st.tuples(st.just("run"), _ns),
)


def _assert_aggregate_is_the_sum(kernel):
    agg = kernel.cpu
    accts = [vcpu.acct for vcpu in kernel.cpus]
    assert agg.busy_ns == sum(a.busy_ns for a in accts)
    categories = set(agg._by_category)
    for acct in accts:
        categories |= set(acct._by_category)
    for category in categories:
        assert agg.category_ns(category) == \
            sum(a.category_ns(category) for a in accts), category


def _apply(kernel, op, irq_ns):
    kind = op[0]
    if kind == "consume":
        _kind, ns, busy, category = op
        kernel.consume(ns, busy=busy, category=category)
    elif kind == "charge":
        _kind, ns, category = op
        kernel.charge(ns, category)
    elif kind == "irq":
        _kind, cpu, ns = op
        irq_ns[0] = ns
        if cpu is not None and cpu < kernel.nr_cpus:
            kernel.irq.set_affinity(IRQ, cpu)
        kernel.irq.raise_irq(IRQ)
    elif kind == "event":
        _kind, cpu, ns, category, use_charge = op
        if use_charge:
            work = functools.partial(kernel.charge, ns, category)
        else:
            work = functools.partial(kernel.consume, ns, category=category)
        kernel.events.schedule_after(0, work, cpu=cpu % kernel.nr_cpus)
    else:
        kernel.run_for_ns(op[1])


@settings(max_examples=60)
@given(nr_cpus=st.sampled_from((1, 2, 4)),
       ops=st.lists(_ops, min_size=1, max_size=25))
def test_aggregate_equals_per_cpu_sum(nr_cpus, ops):
    kernel = make_kernel(nr_cpus=nr_cpus)
    irq_ns = [0]

    def handler(_irq, _dev_id):
        kernel.consume(irq_ns[0], category="irq")
        return IRQ_HANDLED

    kernel.irq.request_irq(IRQ, handler, "acct-test")
    for op in ops:
        _apply(kernel, op, irq_ns)
        _assert_aggregate_is_the_sum(kernel)
    kernel.run_for_ms(10)  # drain targeted events and busy windows
    _assert_aggregate_is_the_sum(kernel)


def test_lone_vcpu_account_is_the_aggregate():
    kernel = make_kernel()
    assert kernel.cpus[0].acct is kernel.cpu
    smp = make_kernel(nr_cpus=2)
    assert all(vcpu.acct is not smp.cpu for vcpu in smp.cpus)
