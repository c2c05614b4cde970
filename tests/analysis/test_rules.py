"""One test per rule against a tiny intentionally-bad fixture.

Each test asserts the *exact* findings — code and line — so rule drift
(new false positives, silently lost coverage) fails loudly.  The FRK
fixtures live under ``fixtures/repro/runner/`` because the fork-safety
family is scoped to runner paths (``Rule.only_paths``).
"""

from pathlib import Path

from repro.analysis import RULES, analyze_file, analyze_source

FIXTURES = Path(__file__).parent / "fixtures"


def keys(findings):
    return [(f.code, f.line) for f in findings]


def test_det001_global_random_fixture():
    findings = analyze_file(FIXTURES / "det001_global_random.py")
    assert keys(findings) == [
        ("DET001", 3),   # import random
        ("DET001", 4),   # from random import choice
        ("DET001", 5),   # import numpy.random
        ("DET001", 6),   # from numpy import random
        ("DET001", 10),  # random.random() call
    ]


def test_det002_wall_clock_fixture():
    findings = analyze_file(FIXTURES / "det002_wall_clock.py")
    assert keys(findings) == [
        ("DET002", 8),   # time.time()
        ("DET002", 9),   # time.monotonic()
        ("DET002", 10),  # datetime.now()
    ]


def test_det003_builtin_hash_fixture():
    findings = analyze_file(FIXTURES / "det003_builtin_hash.py")
    assert keys(findings) == [("DET003", 5)]


def test_det004_set_iteration_fixture():
    findings = analyze_file(FIXTURES / "det004_set_iteration.py")
    assert keys(findings) == [
        ("DET004", 7),   # for event in events (Set[str] parameter)
        ("DET004", 12),  # list({...})
        ("DET004", 13),  # [item * 2 for item in set(order)]
    ]
    # The clean() function — reducers, membership, sorted() — stays silent.
    assert all(f.line < 17 for f in findings)


def test_det005_id_ordering_fixture():
    findings = analyze_file(FIXTURES / "det005_id_ordering.py")
    assert keys(findings) == [("DET005", 5)]


def test_det006_mutable_default_fixture():
    findings = analyze_file(FIXTURES / "det006_mutable_default.py")
    assert keys(findings) == [("DET006", 4), ("DET006", 9)]


def test_det007_environ_fixture():
    findings = analyze_file(FIXTURES / "det007_environ.py")
    assert keys(findings) == [("DET007", 7), ("DET007", 8)]


def test_sim001_host_sleep_fixture():
    findings = analyze_file(FIXTURES / "sim001_host_sleep.py")
    assert keys(findings) == [
        ("SIM001", 8),   # time.sleep(0.5)
        ("SIM001", 9),   # sleep(0.1) — `from time import sleep`
    ]


def test_sim002_time_accumulation_fixture():
    findings = analyze_file(FIXTURES / "sim002_time_accumulation.py")
    assert keys(findings) == [("SIM002", 7)]  # t += 0.1 with t = kernel.now


def test_epoch_rebucket_idiom_is_clean():
    # The time-aware index derives epoch boundaries by multiplying an
    # integer epoch counter by the epoch length; none of SIM002 (float
    # time accumulation), DET002 (wall clock), or any other rule fires.
    assert analyze_file(FIXTURES / "epoch_rebucket_clean.py") == []


def test_sim003_domain_mixing_fixture():
    findings = analyze_file(FIXTURES / "sim003_domain_mixing.py")
    assert keys(findings) == [
        ("DET002", 7),   # time.time() — the wall read itself
        ("SIM003", 8),   # kernel.now - wall
        ("DET002", 12),  # time.monotonic()
        ("SIM003", 13),  # kernel.now > wall_deadline
    ]


def test_frk001_module_state_fixture():
    findings = analyze_file(
        FIXTURES / "repro" / "runner" / "frk001_module_state.py")
    assert keys(findings) == [
        ("FRK001", 8),   # RESULTS.append(...)
        ("FRK001", 9),   # _SEEN[...] = ...
        ("FRK001", 13),  # RESULTS.clear()
    ]
    # The same source outside repro/runner/ is ordinary module state.
    source = (FIXTURES / "repro" / "runner"
              / "frk001_module_state.py").read_text(encoding="utf-8")
    assert not analyze_source(source, "repro/apps/example.py")


def test_frk002_worker_capture_fixture():
    findings = analyze_file(FIXTURES / "frk002_worker_capture.py")
    assert keys(findings) == [
        ("FRK002", 14),  # pool.submit(nested function)
        ("FRK002", 15),  # pool.submit(lambda)
        ("FRK002", 16),  # Process(target=lambda)
    ]
    # Submitting the module-level run_job (line 17) stays clean.


def test_frk003_shared_memory_fixture():
    findings = analyze_file(FIXTURES / "frk003_shared_memory.py")
    assert keys(findings) == [("FRK003", 7)]
    source = (FIXTURES / "frk003_shared_memory.py").read_text(encoding="utf-8")
    assert not analyze_source(source, "repro/runner/artifacts.py")


def test_frk004_mirror_mutation_fixture():
    fixture = FIXTURES / "repro" / "sim" / "sharded" / "frk004_mirror_mutation.py"
    findings = analyze_file(fixture)
    assert keys(findings) == [
        ("FRK004", 5),   # node.move_to(position)
        ("FRK004", 6),   # node.set_mobility(model)
        ("FRK004", 7),   # node.owner_shard = 2
        ("FRK004", 8),   # node.mobility = model
    ]
    source = fixture.read_text(encoding="utf-8")
    # The boundary module owns the invariant and may mutate directly.
    assert not analyze_source(source, "repro/sim/sharded/boundary.py")
    # Outside the sharded package these are ordinary attribute writes.
    assert not analyze_source(source, "repro/phy/world.py")


def test_api003_spatial_kwargs_fixture():
    findings = analyze_file(FIXTURES / "api003_spatial_kwargs.py")
    assert keys(findings) == [
        ("API003", 5),   # nodes_within(center=...)
        ("API003", 6),   # _candidates(..., cutoff=...)
    ]
    # The protocol spellings on lines 7-8 stay clean.


def test_api003_exempts_the_deprecation_shim():
    source = "def f(world, n):\n    return world.nodes_within(center=n, radius=1.0)\n"
    assert analyze_source(source, "repro/apps/example.py")
    assert not analyze_source(source, "repro/phy/world.py")


def test_every_rule_has_a_fixture_exercising_it():
    from repro.analysis import analyze_project

    codes = set()
    for fixture in FIXTURES.rglob("*.py"):
        codes.update(f.code for f in analyze_file(fixture))
    # Interprocedural rules only fire in the whole-program pass; the SHD
    # fixtures resolve against the fixture tree root and the xmod tree
    # resolves against itself.
    codes.update(f.code for f in analyze_project([FIXTURES]))
    codes.update(f.code for f in analyze_project([FIXTURES / "xmod"]))
    assert codes == set(RULES)


def test_path_scoping_is_separator_aware():
    # `repro/runner` (either spelling) must scope the runner *package*,
    # never the sibling file `repro/runner_utils.py`.
    from repro.analysis.rules import Rule

    for prefix in ("repro/runner", "repro/runner/"):
        scoped = Rule(code="TST001", name="t", summary="s", suggestion="x",
                      only_paths=(prefix,))
        assert scoped.applies_to("repro/runner/cli.py")
        assert scoped.applies_to("repro/runner")
        assert not scoped.applies_to("repro/runner_utils.py")

        exempt = Rule(code="TST002", name="t", summary="s", suggestion="x",
                      exempt_paths=(prefix,))
        assert not exempt.applies_to("repro/runner/cli.py")
        assert exempt.applies_to("repro/runner_utils.py")


def test_file_exemptions_do_not_leak_onto_suffix_siblings():
    from repro.analysis.rules import Rule

    exempt = Rule(code="TST003", name="t", summary="s", suggestion="x",
                  exempt_paths=("repro/sim/sharded/boundary.py",))
    assert not exempt.applies_to("repro/sim/sharded/boundary.py")
    assert exempt.applies_to("repro/sim/sharded/boundary_extra.py")


def test_exempt_paths_silence_the_owning_module():
    # The same source that fires DET001 in app code is exempt under the
    # path that owns the invariant.
    source = "import random\n"
    assert analyze_source(source, "repro/apps/example.py")
    assert not analyze_source(source, "repro/util/rng.py")
    assert not analyze_source(source, "repro/analysis/tripwire.py")


def test_wall_clock_exempt_in_runner_engine():
    source = "import time\n\n\ndef t():\n    return time.perf_counter()\n"
    assert analyze_source(source, "repro/experiments/example.py")
    assert not analyze_source(source, "repro/runner/engine.py")


def test_sorted_set_iteration_is_clean():
    source = (
        "def order(tried):\n"
        "    return sorted(value for value in set(tried))\n"
    )
    assert not analyze_source(source, "example.py")


def test_set_attribute_iteration_is_flagged():
    source = (
        "class Tracker:\n"
        "    def __init__(self):\n"
        "        self._engaged = set()\n"
        "    def report(self):\n"
        "        return [tech for tech in self._engaged]\n"
    )
    findings = analyze_source(source, "example.py")
    assert keys(findings) == [("DET004", 5)]


# -- scope-aware v2 precision -------------------------------------------------


def test_det004_commutative_bitwise_loop_is_clean():
    # The disseminate.py encode_metadata idiom: OR-accumulation into a
    # bitmap is order-insensitive, so the old waiver is now unnecessary.
    source = (
        "def encode(have: set):\n"
        "    bitmap = 0\n"
        "    for index in have:\n"
        "        bitmap |= 1 << index\n"
        "    return bitmap\n"
    )
    assert not analyze_source(source, "example.py")


def test_det004_float_accumulation_loop_stays_flagged():
    # Float += is order-dependent (rounding); only bitwise ops are safe.
    source = (
        "def total(weights: set):\n"
        "    acc = 0.0\n"
        "    for weight in weights:\n"
        "        acc += weight\n"
        "    return acc\n"
    )
    assert keys(analyze_source(source, "example.py")) == [("DET004", 3)]


def test_det004_list_parameter_sharing_a_set_name_is_clean():
    # The prophet.py encode/decode_summary pair: a List[int] parameter no
    # longer inherits set-ness from a set of the same name in a sibling
    # scope.
    source = (
        "from typing import List, Set\n"
        "def encode(bundle_ids: List[int]):\n"
        "    return [b * 2 for b in bundle_ids]\n"
        "def decode(raw) -> Set[int]:\n"
        "    bundle_ids: Set[int] = set()\n"
        "    bundle_ids.add(raw)\n"
        "    return bundle_ids\n"
    )
    assert not analyze_source(source, "example.py")


def test_det005_dedup_set_with_sorted_output_is_clean():
    # The radio/wifi.py _visible_meshes idiom: id() keys feed a
    # membership-only set and the result list is sorted before returning.
    source = (
        "def visible(radios):\n"
        "    seen = set()\n"
        "    meshes = []\n"
        "    for radio in radios:\n"
        "        if radio.mesh is None or id(radio.mesh) in seen:\n"
        "            continue\n"
        "        seen.add(id(radio.mesh))\n"
        "        meshes.append(radio.mesh)\n"
        "    meshes.sort(key=lambda mesh: mesh.name)\n"
        "    return meshes\n"
    )
    assert not analyze_source(source, "example.py")


def test_det005_dedup_without_sort_stays_flagged():
    source = (
        "def visible(radios):\n"
        "    seen = set()\n"
        "    meshes = []\n"
        "    for radio in radios:\n"
        "        if id(radio.mesh) in seen:\n"
        "            continue\n"
        "        seen.add(id(radio.mesh))\n"
        "        meshes.append(radio.mesh)\n"
        "    return meshes\n"
    )
    assert [f.code for f in analyze_source(source, "example.py")] == [
        "DET005", "DET005",
    ]


def test_det005_dedup_set_with_other_uses_stays_flagged():
    # Iterating the dedup set leaks address order, so suppression is off.
    source = (
        "def visible(radios):\n"
        "    seen = set()\n"
        "    out = []\n"
        "    for radio in radios:\n"
        "        seen.add(id(radio))\n"
        "    for key in seen:\n"
        "        out.append(key)\n"
        "    out.sort()\n"
        "    return out\n"
    )
    codes = [f.code for f in analyze_source(source, "example.py")]
    assert "DET005" in codes
