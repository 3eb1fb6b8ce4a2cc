import random

from deolog.proofs import check_derivation
from deolog.suite import (ClaimResult, SuiteReport, derivation_manifest,
                          load_shipped_derivation, random_surface_formula,
                          run_suite)
from deolog.syntax import pretty


class TestRegistry:
    def test_only_filter(self):
        report = run_suite(only="S42")
        assert report.ok
        assert [r.claim_id for r in report.results] == ["S42.1", "S42.2"]
        assert all(r.observed == "invalid" for r in report.results)

    def test_group_lines(self):
        report = run_suite(only="S31")
        assert report.group_lines() == ["S31: 2/2 invalid"]

    def test_group_lines_count_each_group(self):
        report = SuiteReport([ClaimResult("A.1", "valid", "valid"),
                              ClaimResult("A.2", "invalid", "valid"),
                              ClaimResult("B.1", "qualified-valid",
                                          "qualified-valid")])
        assert report.group_lines() == ["A: 1/2 ok", "B: 1/1 valid"]

    def test_json_doc_shape(self):
        doc = run_suite(only="S42").to_doc()
        assert doc["ok"] is True
        entry = doc["entries"][0]
        assert set(entry) >= {"id", "expected", "observed", "fingerprint",
                              "elapsed"}

    def test_results_sorted_by_id(self):
        report = run_suite(only="Prop4")
        ids = [r.claim_id for r in report.results]
        assert ids == sorted(ids)


def test_random_surface_formula_draws_are_pinned():
    # the randomized claims draw from seeded generators: their samples stay
    # the same from run to run and from version to version
    rng = random.Random(5)
    drawn = [pretty(random_surface_formula(rng, ["p", "q", "r"], 3))
             for _ in range(3)]
    assert drawn == ["((r >= r) >= q) | (p >= P q)", "O ~p", "p"]


class TestShippedDerivations:
    def test_manifest_counts(self):
        manifest = derivation_manifest()
        assert len(manifest["good"]) == 20
        assert len(manifest["corrupt"]) == 5

    def test_one_good_file_checks(self):
        result = check_derivation(load_shipped_derivation("ax1-basic.json"))
        assert result.ok

    def test_one_corrupt_file_fails_at_expected_step(self):
        manifest = derivation_manifest()
        name, step = next(iter(manifest["corrupt"].items()))
        result = check_derivation(load_shipped_derivation(name))
        assert not result.ok
        assert result.step == step
