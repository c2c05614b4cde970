"""The VEC family: numpy bit-parity and RNG draw order on delivery paths.

The ``fixtures/xvec/`` tree is analyzed with the xvec directory as the
root so ``import helpers`` / ``import mathops`` resolve among the
fixture files — that is what drives the interprocedural VEC001 case
where the banned ufunc sits two calls away from the delivery root.
"""

from pathlib import Path

from repro.analysis.callgraph import build_project_graph
from repro.analysis.project import analyze_paths, analyze_project
from repro.analysis.taint import compute_parity_chains, is_parity_root
from repro.analysis.visitor import analyze_file

FIXTURES = Path(__file__).parent / "fixtures"
XVEC = FIXTURES / "xvec"


def keys(findings):
    return [(f.code, f.path.rsplit("/", 1)[-1], f.line) for f in findings]


def entries(tree):
    return [(str(p), str(tree), p.read_text(encoding="utf-8"))
            for p in sorted(tree.glob("*.py"))]


# -- the whole-program pass over the xvec tree --------------------------------


def test_xvec_project_findings_are_exact():
    findings = analyze_project([XVEC])
    assert keys(findings) == [
        ("VEC001", "acceptance.py", 15),   # np.exp in accepts_mask
        ("VEC004", "acceptance.py", 19),   # bulk draw in _acceptance_mask
        ("VEC004", "bulk_draw.py", 10),    # rng.random(n) bulk draw
        ("VEC004", "bulk_draw.py", 14),    # draw inside set iteration
        ("VEC001", "direct_ban.py", 12),   # np.hypot via per-call shim read
        ("VEC001", "mathops.py", 10),      # np.power two calls from broadcast
        ("VEC001", "rebucket.py", 19),     # np.power below the _rebucket root
        ("VEC005", "reduction.py", 11),    # np.sum feeding a parity root
    ]
    # clean_vec.py (np.sqrt, arithmetic, stable argsort, per-call backend
    # read, ordered scalar draws), rebucket_clean.py (elementwise
    # acceptance reads, maximum/multiply/add epoch positions, math.floor
    # bucketing), and offline.py (np.power off the delivery path) stay
    # silent — asserted by the exactness above.


def test_vec001_interprocedural_chain_names_every_hop():
    findings = [f for f in analyze_project([XVEC])
                if f.path.endswith("mathops.py")]
    message = findings[0].message
    # Root, both intermediate hops, and the primitive all appear.
    assert "pipeline:broadcast" in message
    assert "helpers:attenuate" in message
    assert "mathops:raw_loss" in message
    assert "np.power()" in message
    assert "chain:" in message


def test_vec004_messages_distinguish_bulk_from_unordered():
    bulk, unordered = [f for f in analyze_project([XVEC])
                       if f.code == "VEC004"
                       and f.path.endswith("bulk_draw.py")]
    assert "bulk RNG draw" in bulk.message
    assert "unordered (set) iteration" in unordered.message


def test_vec001_chain_reaches_below_the_rebucket_root():
    findings = [f for f in analyze_project([XVEC])
                if f.path.endswith("rebucket.py")]
    message = findings[0].message
    # The root and the non-root helper hop both appear in the chain.
    assert "rebucket:_rebucket" in message
    assert "rebucket:_epoch_coords" in message
    assert "np.power()" in message
    assert "chain:" in message


def test_acceptance_draws_no_rng_even_in_bulk():
    findings = [f for f in analyze_project([XVEC])
                if f.path.endswith("acceptance.py") and f.code == "VEC004"]
    assert len(findings) == 1
    assert "bulk RNG draw" in findings[0].message


def test_clean_fixture_is_silent_under_both_passes():
    assert analyze_file(XVEC / "clean_vec.py") == []
    assert not [f for f in analyze_paths([XVEC])
                if f.path.endswith("clean_vec.py")]


def test_offline_numpy_user_gets_no_vec001():
    codes = {f.code for f in analyze_paths([XVEC])
             if f.path.endswith("offline.py")}
    assert codes == set()


# -- the parity closure -------------------------------------------------------


def test_parity_closure_covers_transitive_callees_only():
    graph = build_project_graph(entries(XVEC))
    chains = compute_parity_chains(graph)
    names = {f.display for f in chains}
    assert "pipeline:broadcast" in names         # root
    assert "helpers:attenuate" in names          # one call away
    assert "mathops:raw_loss" in names           # two calls away
    assert "offline:summarize" not in names      # never reached


def test_batch_pipeline_surfaces_are_parity_roots(tmp_path):
    # The PR 10 acceptance/rebucket surfaces joined PARITY_ROOT_NAMES:
    # defining any of them makes the function (and its callees) part of
    # the parity closure without a call from an older root.
    names = [
        "accepts_mask", "_acceptance_mask", "_delivery_mask",
        "positions_at", "positions_for", "_rebucket", "insert_batch",
    ]
    source = "".join(
        f"def {name}():\n    return None\n\n\n" for name in names
    ) + "def bystander():\n    return None\n"
    path = tmp_path / "surfaces.py"
    path.write_text(source, encoding="utf-8")
    graph = build_project_graph([(str(path), str(tmp_path), source)])
    info = graph.modules["surfaces"]
    for name in names:
        assert is_parity_root(info.functions[name]), name
    assert not is_parity_root(info.functions["bystander"])


def test_parity_roots_include_record_writer_classes(tmp_path):
    source = (
        "class _BatchDelivery:\n"
        "    def __call__(self):\n"
        "        return None\n"
        "\n"
        "\n"
        "def helper():\n"
        "    return None\n"
    )
    path = tmp_path / "m.py"
    path.write_text(source, encoding="utf-8")
    graph = build_project_graph([(str(path), str(tmp_path), source)])
    info = graph.modules["m"]
    assert is_parity_root(info.functions["_BatchDelivery.__call__"])
    assert not is_parity_root(info.functions["helper"])
    assert not is_parity_root(info.module_body)


def test_address_factory_random_is_not_a_draw(tmp_path):
    # MacAddress.random(rng) is a classmethod address generator, not a
    # bulk uniform draw — the receiver heuristic must not flag it.
    source = (
        "def broadcast(world):\n"
        "    return MacAddress.random(world)\n"
    )
    path = tmp_path / "radio.py"
    path.write_text(source, encoding="utf-8")
    findings = analyze_project([path])
    assert [f.code for f in findings] == []


def test_production_tree_is_vec_clean():
    src = Path(__file__).resolve().parents[2] / "src" / "repro"
    vec = [f for f in analyze_paths([src]) if f.code.startswith("VEC")]
    assert vec == [], "\n".join(f.render() for f in vec)


def test_renaming_the_only_root_caller_drops_the_callee_vec001(tmp_path):
    # Parity-sensitivity flows from a delivery-log root down to its
    # callees: the VEC001 lands in loss.py but exists only because
    # broadcast() calls it.
    tree = tmp_path / "proj"
    tree.mkdir()
    (tree / "loss.py").write_text(
        "import numpy as np\n\n\ndef attenuate(gains):\n"
        "    return np.power(10.0, gains)\n",
        encoding="utf-8",
    )
    entry = tree / "entry.py"
    entry.write_text(
        "import loss\n\n\ndef broadcast(frame, candidates):\n"
        "    return loss.attenuate(candidates)\n",
        encoding="utf-8",
    )
    assert keys(analyze_paths([tree])) == [("VEC001", "loss.py", 5)]

    entry.write_text(
        "import loss\n\n\ndef prepare(frame, candidates):\n"
        "    return loss.attenuate(candidates)\n",
        encoding="utf-8",
    )
    assert analyze_paths([tree]) == []
