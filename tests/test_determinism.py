"""Golden determinism suite: two identical runs must be bit-identical.

The engines are deterministic discrete-event simulations; the vectorized
comm substrate must preserve that.  For every study app under BSP and
BASP, two runs built from scratch (fresh graphs, partitions, plan caches,
and engines) must produce identical labels, round counts, and the full
:class:`RunStats` record.  Any divergence means ordering leaked in — a
dict iteration, an unstable sort, or a float reassociation.
"""

import dataclasses
import zlib

import numpy as np
import pytest

from repro.apps import get_app
from repro.comm import CommConfig
from repro.engine import BASPEngine, BSPEngine, RunContext
from repro.generators import rmat
from repro.graph.transform import add_random_weights, make_undirected
from repro.hw import bridges
from repro.hw.contention import ContentionConfig
from repro.partition import partition

APPS = ("bfs", "cc", "kcore", "pr", "sssp")
ENGINES = {"bsp": BSPEngine, "basp": BASPEngine}


def _inputs(app_name: str):
    """A fresh app, input graph and run context."""
    g = add_random_weights(rmat(9, edge_factor=8, seed=3), seed=0)
    sym = add_random_weights(make_undirected(g), seed=1)
    app = get_app(app_name)
    base = sym if app.needs_symmetric else g
    ctx = RunContext(
        num_global_vertices=base.num_vertices,
        source=int(np.argmax(base.out_degrees())),
        k=8,
        global_out_degrees=base.out_degrees(),
        global_degrees=sym.out_degrees(),
    )
    return app, base, ctx


def _one_run(app_name: str, engine: str):
    """Build everything from scratch and run once."""
    app, base, ctx = _inputs(app_name)
    pg = partition(base, "cvc", 4, cache=False)
    eng = ENGINES[engine](
        pg, bridges(4), app,
        comm_config=CommConfig(update_only=True),
        check_memory=False,
    )
    return eng.run(ctx)


def _assert_stats_identical(a, b):
    for f in dataclasses.fields(a):
        va, vb = getattr(a, f.name), getattr(b, f.name)
        if isinstance(va, np.ndarray):
            np.testing.assert_array_equal(va, vb, err_msg=f.name)
        else:
            assert va == vb, f"{f.name}: {va!r} != {vb!r}"


def _assert_results_identical(r1, r2):
    np.testing.assert_array_equal(r1.labels, r2.labels)
    assert r1.stats.rounds == r2.stats.rounds
    _assert_stats_identical(r1.stats, r2.stats)
    assert set(r1.extra) == set(r2.extra)
    for k in r1.extra:
        np.testing.assert_array_equal(r1.extra[k], r2.extra[k])


@pytest.mark.parametrize("engine", sorted(ENGINES))
@pytest.mark.parametrize("app", APPS)
def test_two_runs_identical(app, engine):
    _assert_results_identical(_one_run(app, engine), _one_run(app, engine))


def test_sweep_process_pool_bit_identical():
    """The same study cells through jobs=1 and a 2-worker process pool
    must agree on every deterministic outcome field."""
    from repro.runtime.cells import CellSpec, SystemSpec
    from repro.runtime.sweep import SweepExecutor

    specs = [
        CellSpec(
            key=(name, bench),
            system=SystemSpec.variant(name),
            benchmark=bench,
            dataset="tiny-s",
            num_gpus=2,
            check_memory=False,
        )
        for name in ("var1", "var4")
        for bench in ("bfs", "pr")
    ]
    with SweepExecutor(jobs=1) as ex:
        serial = ex.map(specs)
    with SweepExecutor(jobs=2) as ex:
        pooled = ex.map(specs)
    assert [o.key for o in serial] == [o.key for o in pooled]
    for a, b in zip(serial, pooled):
        assert a.ok and b.ok
        assert a.labels_crc == b.labels_crc, a.key
        assert a.stats.execution_time == b.stats.execution_time, a.key
        assert a.stats.rounds == b.stats.rounds, a.key
        assert a.stats.comm_volume_bytes == b.stats.comm_volume_bytes, a.key


# --------------------------------------------------------------------- #
# Cross-commit golden pin for the host-aware network paths
# --------------------------------------------------------------------- #
#: name -> (engine kwargs, contended platform?, hierarchical sync?)
NETMODES = {
    "contended": ({}, True, False),
    "hier": ({}, False, True),
    "contended+hier": ({}, True, True),
    "overlap": ({"overlap_comm": 0.5}, False, False),
    "throttle": ({"throttle_wait": 2e-4}, False, False),
}


def _netmode_run(app_name: str, engine: str, mode: str):
    kwargs, contended, hier = NETMODES[mode]
    app, base, ctx = _inputs(app_name)
    cluster = bridges(8, contention=ContentionConfig() if contended else None)
    eng = ENGINES[engine](
        partition(base, "cvc", 8, cache=False), cluster, app,
        comm_config=CommConfig(update_only=True, hierarchical=hier),
        check_memory=False,
        **kwargs,
    )
    res = eng.run(ctx)
    s = res.stats
    return (
        zlib.crc32(np.ascontiguousarray(res.labels).tobytes()),
        s.rounds,
        s.num_messages,
        s.inter_host_messages,
        s.hier_aggregates,
        s.comm_volume_bytes,
        s.execution_time,
    )


#: (app, engine, mode, (labels CRC, rounds, num_messages,
#: inter_host_messages, hier_aggregates, comm_volume_bytes,
#: execution_time)) recorded before the BSP and BASP round pipelines
#: were merged.  No other gate runs these modes: the BENCH_sync matrix
#: and the host-time benchmark price plain ``bridges`` only.
NETMODE_GOLDEN = [
    ("bfs", "bsp", "contended", (225929698, 4, 61, 44, 0, 8127.0, 0.0014240517306357882)),
    ("bfs", "basp", "contended", (225929698, 8, 81, 56, 0, 9537.0, 0.013656111509432734)),
    ("sssp", "bsp", "contended", (3470867986, 7, 130, 94, 0, 16434.0, 0.0028301559478402295)),
    ("sssp", "basp", "contended", (3470867986, 23, 269, 193, 0, 27342.0, 0.028705713641842323)),
    ("cc", "bsp", "contended", (3479670591, 5, 63, 46, 0, 12087.0, 0.0016389589452641166)),
    ("cc", "basp", "contended", (3479670591, 8, 99, 64, 0, 16963.0, 0.008867068809866421)),
    ("bfs", "bsp", "hier", (225929698, 4, 41, 24, 24, 6847.0, 0.001036738917399601)),
    ("bfs", "basp", "hier", (225929698, 10, 83, 56, 56, 9675.0, 0.012880833182943013)),
    ("sssp", "bsp", "hier", (3470867986, 7, 89, 53, 53, 13810.0, 0.0020379232554688176)),
    ("sssp", "basp", "hier", (3470867986, 23, 292, 207, 207, 29110.0, 0.028684116474208536)),
    ("cc", "bsp", "hier", (3479670591, 5, 42, 25, 25, 10743.0, 0.0012557181809784023)),
    ("cc", "basp", "hier", (3479670591, 8, 92, 62, 62, 15622.0, 0.009929253183940497)),
    ("bfs", "bsp", "contended+hier", (225929698, 4, 41, 24, 24, 6847.0, 0.0011190666806618094)),
    ("bfs", "basp", "contended+hier", (225929698, 8, 81, 56, 56, 9537.0, 0.013656111509432734)),
    ("sssp", "bsp", "contended+hier", (3470867986, 7, 89, 53, 53, 13810.0, 0.002191039828228814)),
    ("sssp", "basp", "contended+hier", (3470867986, 23, 269, 193, 193, 27342.0, 0.028705713641842323)),
    ("cc", "bsp", "contended+hier", (3479670591, 5, 42, 25, 25, 10743.0, 0.0013198094500260214)),
    ("cc", "basp", "contended+hier", (3479670591, 8, 99, 64, 64, 16963.0, 0.008867068809866421)),
    ("bfs", "bsp", "overlap", (225929698, 4, 61, 44, 0, 8127.0, 0.0009718434457455114)),
    ("bfs", "basp", "overlap", (225929698, 8, 82, 56, 0, 9606.0, 0.012584129298053425)),
    ("sssp", "bsp", "overlap", (3470867986, 7, 130, 94, 0, 16434.0, 0.0019210093798421373)),
    ("sssp", "basp", "overlap", (3470867986, 23, 292, 207, 0, 29118.0, 0.028364457183242972)),
    ("cc", "bsp", "overlap", (3479670591, 5, 63, 46, 0, 12087.0, 0.0011697210841183103)),
    ("cc", "basp", "overlap", (3479670591, 7, 94, 63, 0, 16105.0, 0.008730982533333334)),
    ("bfs", "basp", "throttle", (225929698, 9, 80, 54, 0, 9469.0, 0.013618327124108771)),
    ("sssp", "basp", "throttle", (3470867986, 20, 258, 187, 0, 26419.0, 0.03015277164704224)),
    ("cc", "basp", "throttle", (3479670591, 6, 81, 54, 0, 14368.0, 0.008998477892835456)),
    # direction-optimizing BFS pulls in 16 of its 29 partition-rounds here
    ("bfs-do", "bsp", "contended", (225929698, 4, 61, 44, 0, 8127.0, 0.001404607986217365)),
    ("bfs-do", "bsp", "hier", (225929698, 4, 41, 24, 24, 6847.0, 0.0010162249793303844)),
]


@pytest.mark.parametrize(
    "app,engine,mode,expected",
    NETMODE_GOLDEN,
    ids=[f"{a}-{e}-{m}" for a, e, m, _ in NETMODE_GOLDEN],
)
def test_netmode_golden(app, engine, mode, expected):
    """Contention queues, two-level aggregation, overlap hiding and the
    async throttle must reproduce the recorded outputs exactly: labels,
    rounds, message counts, bytes and simulated seconds compare with
    ``==``."""
    assert _netmode_run(app, engine, mode) == expected
