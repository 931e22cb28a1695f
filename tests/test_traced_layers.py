"""The solve driver still calls every name the benchmark times.

``bench/tracing.py`` patches module attributes of ``dsda`` to time each
layer of a solve and reports a target the package no longer has as
absent.  A renamed or bypassed function would leave its layer empty
without failing a run, so a traced smoke pass must show each decoupled
layer, one residual per record and a count of the basis flops in every
decoupled solve, and no count probe may fail.
"""

import pathlib
import sys

BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

import harness  # noqa: E402
import tracing  # noqa: E402

#: The one target the package no longer has: the Gram update became the
#: paired moments of each doubling.
ABSENT = {"dsda.decoupled._extend_gram"}


def test_every_decoupled_solve_shows_its_init_step_and_eval_layers():
    tracer = tracing.Tracer()
    instances = harness.build_instances("families", 5, smoke=True)
    with tracer.installed():
        ops = harness.run_pass(instances, "families", tracer)
    assert set(tracer.absent) <= ABSENT
    # Every count probe still fits the function it reads: a changed
    # signature or an operator without shape and dtype would otherwise
    # leave the count of its layer absent without failing the run.
    assert tracer.probe_failures == {}
    assert len(ops) == len(tracer.solves)
    decoupled = 0
    for index, (op, info) in enumerate(zip(ops, tracer.solves)):
        assert (op.instance, op.method) == (info.instance, info.method)
        if op.method == "sda":
            continue
        decoupled += 1
        names = [span.name for span in tracer.spans if span.solve == index]
        for layer in ("decoupled.init", "decoupled.step", "decoupled.eval"):
            assert layer in names, (op.instance, op.method, layer)
        assert op.error is None and op.residuals, (op.instance, op.method)
        assert names.count("decoupled.step") == len(op.residuals), (
            op.instance, op.method)
        assert info.extend_flop > 0, (op.instance, op.method)
        # Each record's residual is timed in the residual layer, not
        # left in the driver's self time.
        assert names.count("residuals.residual") == len(op.residuals), (
            op.instance, op.method)
    assert decoupled == 5
