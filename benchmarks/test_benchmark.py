"""Self-tests of the benchmark (not part of the tier-1 suite):

    python3 -m pytest -q benchmarks/test_benchmark.py
"""

import inspect
import json
import shutil
import subprocess
import sys

import pytest

import run
import tracer
import workloads

RANDOMIZED = {"Prop1.random", "Prop2.random", "Fact1.random",
              "Axioms.derivations"}


@pytest.fixture(scope="module")
def dl():
    return run.import_deolog()


@pytest.fixture(scope="module")
def spec():
    return json.loads(workloads.CLAIMS_FILE.read_text())


def test_claims_match_the_suite_registry(dl, spec):
    import deolog.suite
    registry = [c for c in deolog.suite._registry()
                if c.claim_id not in RANDOMIZED]
    ours = {c["id"]: c for c in spec["claims"]}
    assert sorted(ours) == sorted(c.claim_id for c in registry)
    assert len(ours) == 61
    for claim in registry:
        mine = ours[claim.claim_id]
        assert mine["expected"] == claim.expected, claim.claim_id
        bound = inspect.getclosurevars(claim.run).nonlocals
        if "text" in bound:
            assert mine["sequent"] == bound["text"], claim.claim_id
        if "regime" in bound:
            assert mine["op"] == "check"
            assert workloads.regime_from_text(dl, mine["regime"]) == \
                bound["regime"], claim.claim_id
        elif "text" in bound:
            assert mine["op"] == "forall-weights", claim.claim_id


def test_derivations_match_the_manifest(spec):
    import deolog.suite
    manifest = deolog.suite.derivation_manifest()
    good = [d["file"] for d in spec["derivations"] if d["status"] == "good"]
    corrupt = {d["file"]: d["failing_step"] for d in spec["derivations"]
               if d["status"] == "corrupt"}
    assert good == manifest["good"]
    assert corrupt == manifest["corrupt"]


def test_paper_claims_has_86_operations(dl):
    assert len(workloads.build_paper_claims(dl, workloads.DEFAULT_SEED)) == 86


def test_nested_reference_covers_the_default_seed(dl):
    reference = json.loads(workloads.REFERENCE_FILE.read_text())
    texts = workloads.nested_random_sequents(dl, workloads.DEFAULT_SEED)
    assert reference["seed"] == workloads.DEFAULT_SEED
    assert set(reference["verdicts"]) == set(texts)


def _traced_counts(workload, seed):
    done = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--trace", "1"],
        capture_output=True, text=True, check=True, timeout=300)
    metrics = json.loads(done.stdout.splitlines()[-1])["metrics"]
    return {name: metrics[name]["value"] for name in tracer.WORK_COUNTERS}


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_work_counters_repeat_for_a_seed(workload):
    assert _traced_counts(workload, 3) == _traced_counts(workload, 3)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(run.HERE, tmp_path / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, str(tmp_path / run.HERE.name / "run.py"),
         "--workload", "model-eval", "--seconds", "1"],
        capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert "correct" not in done.stdout
