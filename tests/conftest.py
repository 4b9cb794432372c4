"""Shared fixtures: ID spaces, seeded RNGs, and prebuilt small networks.

Networks that several test modules reuse are session-scoped; everything is
deterministic (fixed seeds) so failures reproduce.
"""

from __future__ import annotations

import random
from types import SimpleNamespace

import numpy as np
import pytest

from repro import (
    ChordNetwork,
    CrescendoNetwork,
    IdSpace,
    build_uniform_hierarchy,
)
from repro.perf.dynamic import make_protocol
from repro.serve.testbed import build_serving_net
from repro.verify.fuzz import FUZZ_PATHS


def pytest_collection_modifyitems(config, items):
    """Every ``fuzz`` test is implicitly ``slow``.

    The markers themselves are registered in ``pyproject.toml``; the
    default run deselects ``fuzz`` (see ``addopts``) — run them with
    ``pytest -m fuzz``.
    """
    slow = pytest.mark.slow
    for item in items:
        if "fuzz" in item.keywords:
            item.add_marker(slow)


@pytest.fixture
def space():
    return IdSpace(32)


@pytest.fixture
def small_space():
    """A tiny 8-bit space where brute-force enumeration is trivial."""
    return IdSpace(8)


@pytest.fixture
def rng():
    return random.Random(0xBEEF)


def make_crescendo(size=400, levels=3, fanout=4, seed=7, bits=32):
    """Helper used across modules: a deterministic Crescendo instance."""
    rng = random.Random(seed)
    space = IdSpace(bits)
    ids = space.random_ids(size, rng)
    hierarchy = build_uniform_hierarchy(ids, fanout, levels, rng)
    return CrescendoNetwork(space, hierarchy).build()


def make_chord(size=400, seed=7, bits=32):
    rng = random.Random(seed)
    space = IdSpace(bits)
    ids = space.random_ids(size, rng)
    hierarchy = build_uniform_hierarchy(ids, 4, 1, rng)
    return ChordNetwork(space, hierarchy).build()


def scalar_view(compiled):
    """What the scalar engines of ``repro.core.routing`` read of a network
    (``space``, ``links``, ``node_ids``), rebuilt from a compiled view's CSR
    arrays — so ``route_ring(alive=...)`` / ``route_xor(alive=...)`` can
    referee kernels over views no DHT builder produced."""
    ids = compiled.ids.tolist()
    rows = np.split(compiled.neighbors, compiled.indptr[1:-1])
    return SimpleNamespace(
        space=IdSpace(compiled.bits),
        node_ids=ids,
        links={node: row.tolist() for node, row in zip(ids, rows)},
        hierarchy=None,
    )


def serving_net(size, seed, engine):
    """``build_serving_net(size, seed)``'s settled net, without latency, on
    the named maintenance engine.  The testbed runs the fast engine; the
    reference twin replays its join recipe on ``make_protocol(space,
    "reference")`` so serving tests can hold both engines' views."""
    if engine == "fast":
        return build_serving_net(size, seed=seed, with_latency=False)[0]
    rng = random.Random(f"serve-testbed:{seed}")
    space = IdSpace(32)
    net = make_protocol(space, "reference")
    for node_id in space.random_ids(size, rng):
        net.join(node_id, FUZZ_PATHS[rng.randrange(len(FUZZ_PATHS))])
    net.stabilize_to_convergence()
    return net


@pytest.fixture(scope="session")
def crescendo_net():
    return make_crescendo()


@pytest.fixture(scope="session")
def chord_net():
    return make_chord()
