"""The serving view follows the net: refreshing it is compiling it cold.

``compile_protocol_view`` rebuilds only the rows the net's ``_touch`` and
membership hooks reported since the last call, and the next ``set_view``
rebuilds only the live-table rows those touch.  Everything here holds the
result against the whole-net loop it replaced (kept below as the test's
scalar model), on both maintenance engines.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import serving_net

from repro.core.idspace import IdSpace
from repro.obs.metrics import collecting
from repro.perf.dynamic import make_protocol
from repro.perf.kernels import CompiledNetwork
from repro.perf.storage import FastDataLayer
from repro.serve import ServePolicy, ServeRuntime, compile_protocol_view
from repro.serve.batcher import FREE
from repro.serve.scenario import serve_schedule
from repro.serve.testbed import build_serving_net, lookup_workload
from repro.simulation.churn import Event
from repro.verify.fuzz import FUZZ_PATHS

ENGINES = ("fast", "reference")
ARRAYS = ("ids", "indptr", "neighbors", "nbr_pos", "alive")
OPS = ("join", "leave", "crash", "suspend", "revive", "stabilize")

schedules = st.lists(
    st.tuples(st.sampled_from(OPS), st.integers(0, 2**16 - 1)), max_size=24
)


def _scalar_compile(net):
    """Every row from scratch, one node at a time: the loop that was
    ``compile_protocol_view`` before the view followed the net."""
    ids = np.asarray(sorted(net.nodes), dtype=np.uint64)
    known = net.nodes
    live = set(net.live_view())
    indptr = np.zeros(ids.size + 1, dtype=np.int64)
    flat = []
    for i, nid in enumerate(ids.tolist()):
        if nid in live:
            flat.extend(
                sorted(c for c in known[nid].routing_contacts() if c in known)
            )
        indptr[i + 1] = len(flat)
    neighbors = np.asarray(flat, dtype=np.uint64)
    return {
        "ids": ids,
        "indptr": indptr,
        "neighbors": neighbors,
        "nbr_pos": np.searchsorted(ids, neighbors).astype(np.int64),
        "alive": np.asarray(net.live_view(), dtype=np.uint64),
    }


def _arrays(view):
    compiled, alive = view
    out = {name: getattr(compiled, name) for name in ARRAYS[:-1]}
    out["alive"] = alive
    return out


def _frozen(arrays):
    return {name: (arr.dtype, arr.tobytes()) for name, arr in arrays.items()}


def _twin(view):
    """The same view in arrays of its own, with no table carried or held."""
    arrays = {name: arr.copy() for name, arr in _arrays(view).items()}
    alive = arrays.pop("alive")
    compiled = CompiledNetwork.from_arrays(
        metric="ring", bits=view[0].bits, **arrays
    )
    return compiled, alive


def _same_tables(got, want):
    return all(
        g.dtype == w.dtype and g.shape == w.shape and g.tobytes() == w.tobytes()
        for g, w in zip(got, want)
    )


def _small_net(engine, seed, size=18):
    rng = random.Random(f"serve-view:{seed}")
    space = IdSpace(16)
    net = make_protocol(space, engine=engine)
    for node_id in space.random_ids(size, rng):
        net.join(node_id, FUZZ_PATHS[rng.randrange(len(FUZZ_PATHS))])
    net.stabilize()
    return net


def _apply(net, op, arg):
    """One maintenance event; ``arg`` picks the node (purges ride on
    ``stabilize``, which forgets crashed nodes nobody references)."""
    live = list(net.live_view())
    if op == "join":
        if arg not in net.nodes:
            net.join(arg, FUZZ_PATHS[arg % len(FUZZ_PATHS)])
    elif op == "revive":
        dark = net.suspended_ids()
        if dark:
            net.revive(dark[arg % len(dark)])
    elif op == "stabilize":
        net.stabilize()
    elif len(live) > 3:
        getattr(net, op)(live[arg % len(live)])


def _report_key(report):
    columns = (
        report.tickets, report.sources, report.keys, report.terminals,
        report.hops, report.latency_ms, report.attempts, report.success,
        report.status,
    )
    return report.counters, [(c.dtype, c.tobytes()) for c in columns]


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**20), schedule=schedules)
def test_a_refreshed_view_is_the_cold_compile(seed, schedule):
    nets = [_small_net(engine, seed) for engine in ENGINES]
    runtimes = [ServeRuntime(*compile_protocol_view(net)) for net in nets]
    for op, arg in schedule:
        for net in nets:
            _apply(net, op, arg)
        # the engines write the same rows, so neither defeats the other's memo
        assert nets[0]._view_dirty == nets[1]._view_dirty
        if arg % 4 == 0:
            continue  # the next refresh spans several events
        for net, runtime in zip(nets, runtimes):
            view = compile_protocol_view(net)
            assert _frozen(_arrays(view)) == _frozen(_scalar_compile(net))
            if arg % 3:  # else: this view is never bound, the next starts cold
                runtime.set_view(*view)
                fresh, alive = _twin(view)
                assert _same_tables(
                    view[0]._step_table(view[1]), fresh.bind_alive(alive)
                )


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**20), schedule=schedules.filter(len))
def test_a_snapshot_outlives_later_refreshes(seed, schedule):
    policy = ServePolicy(max_attempts=2)
    for engine in ENGINES:
        net = _small_net(engine, seed, size=40)
        view = compile_protocol_view(net)
        before = _frozen(_arrays(view))
        sources, keys = lookup_workload(net, 80, seed=seed)
        left_behind = ServeRuntime(*view, policy=policy)
        control = ServeRuntime(*_twin(view), policy=policy)
        for runtime in (left_behind, control):
            runtime.submit_many(sources, keys)
            runtime.tick()
        moving = ServeRuntime(*view)
        for op, arg in schedule:
            _apply(net, op, arg)
            moving.set_view(*compile_protocol_view(net))
        left_behind.drain()
        control.drain()
        assert _report_key(left_behind.report()) == _report_key(control.report())
        assert _frozen(_arrays(view)) == before


def _standing(runtime):
    """slot -> node id of every open slot, once the position each carries
    is seen to be where a fresh look through the view's ``ids`` finds that
    id (-1 exactly where the view does not hold it)."""
    b = runtime.batcher
    held = np.flatnonzero(b.state != FREE)
    node_ids = runtime.node_ids(held).tolist()
    index = {nid: i for i, nid in enumerate(runtime.compiled.ids.tolist())}
    assert b.pos[held].tolist() == [index.get(nid, -1) for nid in node_ids]
    return dict(zip(held.tolist(), node_ids))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**20), schedule=schedules.filter(len))
def test_carried_positions_are_the_node_ids_resolved_afresh(seed, schedule):
    """Positions belong to one view's ``ids``; node ids survive a swap.
    After every tick and every ``set_view`` of a run whose churn joins,
    forgets and crashes nodes, each open slot's position is its node id
    looked up from scratch, and no swap moves a slot to another node."""
    policy = ServePolicy(max_attempts=3, retry_alternates=True, hedge_quantile=0.5)
    for engine in ENGINES:
        net = _small_net(engine, seed, size=40)
        runtime = ServeRuntime(*compile_protocol_view(net), policy=policy)
        for step, (op, arg) in enumerate(schedule):
            runtime.submit_many(*lookup_workload(net, 12, seed=seed + step))
            runtime.tick()
            stood = _standing(runtime)
            _apply(net, op, arg)
            runtime.set_view(*compile_protocol_view(net))
            assert _standing(runtime) == stood
        runtime.drain()
        assert runtime.report().size == 12 * len(schedule)


@pytest.mark.parametrize("engine", ENGINES)
def test_handed_out_arrays_are_read_only(engine):
    net = _small_net(engine, 3)
    views = [compile_protocol_view(net)]
    net.crash(net.live_view()[2])
    views.append(compile_protocol_view(net))
    for view in views:
        for name, arr in _arrays(view).items():
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0


@pytest.mark.parametrize("engine", ENGINES)
def test_an_untouched_net_gets_the_same_view_back(engine):
    net = _small_net(engine, 4)
    net.stabilize_to_convergence()
    net.stabilize()  # leaf sets and predecessors settle a round after the links
    view = compile_protocol_view(net)
    assert compile_protocol_view(net) is view
    net.stabilize()  # a converged ring: the round writes nothing
    assert compile_protocol_view(net) is view
    net.crash(net.live_view()[0])
    assert compile_protocol_view(net) is not view


@pytest.mark.parametrize("engine", ENGINES)
def test_a_rejected_alive_array_leaves_the_old_view_installed(engine):
    net = serving_net(64, 2, engine)
    runtime = ServeRuntime(*compile_protocol_view(net))
    installed = (runtime.compiled, runtime.alive)
    net.crash(net.live_view()[5])
    compiled, alive = compile_protocol_view(net)  # carries the bound table
    shuffled = alive.copy()
    shuffled[[3, 4]] = shuffled[[4, 3]]
    stranger = next(i for i in range(1, 1 << 16) if i not in net.nodes)
    rejected = [
        (shuffled, f"id {int(alive[3])} follows {int(alive[4])}"),
        (np.repeat(alive, 2), "strictly increasing"),
        (alive.astype(np.int64), "uint64"),
        (alive.reshape(1, -1), "one-dimensional"),
        (alive.tolist(), "uint64 id array"),
        (np.sort(np.append(alive, np.uint64(stranger))), f"alive id {stranger} is not in"),
    ]
    for bad, message in rejected:
        with pytest.raises(ValueError, match=message):
            runtime.set_view(compiled, bad)
        assert (runtime.compiled, runtime.alive) == installed
    runtime.set_view(compiled, alive)
    fresh, fresh_alive = _twin((compiled, alive))
    assert _same_tables(compiled._step_table(alive), fresh.bind_alive(fresh_alive))


@pytest.mark.parametrize("carried", [False, True])
def test_a_filtered_route_between_two_ticks_changes_no_report(carried):
    """``route(alive=...)`` binds a live table of its own on the view it is
    handed — evicting the one a runtime ticks under, or using up the table
    carried for its next ``set_view``.  Either is a rebuild for the
    runtime, never a step under the stranger's live set."""

    def serve(intrude):
        net, latency = build_serving_net(96, seed=4)
        runtime = ServeRuntime(*compile_protocol_view(net), latency=latency)
        sources, keys = lookup_workload(net, 150, seed=4)
        runtime.submit_many(sources, keys)
        runtime.tick()
        view = (runtime.compiled, runtime.alive)
        if carried:
            net.crash(net.live_view()[5])
            view = compile_protocol_view(net)
            assert view[0]._carry is not None
        if intrude:
            view[0].route(sources[:9], keys[:9], alive=set(view[1][::2].tolist()))
            assert view[0]._carry is None
            assert view[0]._live_table[0] is not view[1]
        if carried:
            runtime.set_view(*view)
        runtime.drain()
        return _report_key(runtime.report())

    assert serve(True) == serve(False)


def test_a_data_slice_costs_no_recompile_and_no_rebind(monkeypatch):
    net, _ = build_serving_net(48, seed=5, with_latency=False)
    data = FastDataLayer(net, replicas=2)
    lookups = [Event("lookup", rank=7 * i, key=1000 * i) for i in range(6)]
    events = (
        lookups
        + [Event("put", rank=3, key=11, depth=0)]
        + lookups
        + [Event("get", rank=9, key=11)]
        + lookups
        + [Event("crash", rank=4)]
        + lookups
    )
    binds = []
    set_view = ServeRuntime.set_view
    monkeypatch.setattr(
        ServeRuntime,
        "set_view",
        lambda self, *view: (binds.append(view), set_view(self, *view))[1],
    )
    with collecting() as registry:
        report, slices = serve_schedule(net, events, data=data)
    assert report.counters["submitted"] == 24 and report.counters["completed"] == 24
    assert sum(part.puts for part in slices) == 1
    assert len(binds) == 2  # the runtime's first view, then the crash
    counters = registry.snapshot().counters
    assert counters["serve.view.refreshes"] == 5  # one up front, one a batch
    assert counters["serve.view.rows_rebuilt"] == 48 + 1
    assert counters["serve.view.rows_reused"] == 4 * 48 - 1
    assert not any(name.startswith("serve.view") for name in report.counters)
