"""SARIF 2.1.0 output: rendering and the structural validator."""

import json
from pathlib import Path

from repro.lint.findings import Finding, RULES
from repro.lint.sarif import SARIF_VERSION, render_sarif, validate_sarif

SAMPLE = [
    Finding("src/repro/hw/x.py", 12, "SEC001", "cross-domain touch"),
    Finding("src/repro/hw/y.py", 3, "DET001", "wall clock"),
    Finding("lint-baseline.toml", 0, "BASE002", "stale entry"),
]


def render(tmp_path, findings=SAMPLE):
    return json.loads(render_sarif(findings, tmp_path))


class TestRender:
    def test_validates_against_schema_subset(self, tmp_path):
        assert validate_sarif(render(tmp_path)) == []

    def test_one_result_per_finding(self, tmp_path):
        doc = render(tmp_path)
        assert len(doc["runs"][0]["results"]) == len(SAMPLE)

    def test_every_registered_rule_is_declared(self, tmp_path):
        doc = render(tmp_path)
        declared = {r["id"] for r in doc["runs"][0]["tool"]["driver"]["rules"]}
        assert declared == set(RULES)

    def test_rule_index_cross_references(self, tmp_path):
        doc = render(tmp_path)
        rules = doc["runs"][0]["tool"]["driver"]["rules"]
        for result in doc["runs"][0]["results"]:
            assert rules[result["ruleIndex"]]["id"] == result["ruleId"]

    def test_line_zero_clamped_to_one(self, tmp_path):
        doc = render(tmp_path)
        starts = [
            r["locations"][0]["physicalLocation"]["region"]["startLine"]
            for r in doc["runs"][0]["results"]
        ]
        assert all(s >= 1 for s in starts)

    def test_results_sorted_and_fingerprinted(self, tmp_path):
        doc = render(tmp_path)
        results = doc["runs"][0]["results"]
        uris = [
            r["locations"][0]["physicalLocation"]["artifactLocation"]["uri"]
            for r in results
        ]
        assert uris == sorted(uris)
        assert all(r["partialFingerprints"]["reproLint/v1"] for r in results)

    def test_version_and_schema_stamp(self, tmp_path):
        doc = render(tmp_path)
        assert doc["version"] == SARIF_VERSION
        assert "sarif-schema-2.1.0" in doc["$schema"]

    def test_empty_findings_still_valid(self, tmp_path):
        doc = render(tmp_path, findings=[])
        assert validate_sarif(doc) == []
        assert doc["runs"][0]["results"] == []


class TestValidator:
    def test_wrong_version_rejected(self, tmp_path):
        doc = render(tmp_path)
        doc["version"] = "2.0.0"
        assert any("version" in p for p in validate_sarif(doc))

    def test_missing_message_text_rejected(self, tmp_path):
        doc = render(tmp_path)
        del doc["runs"][0]["results"][0]["message"]["text"]
        assert any("message" in p for p in validate_sarif(doc))

    def test_unknown_rule_id_rejected(self, tmp_path):
        doc = render(tmp_path)
        doc["runs"][0]["results"][0]["ruleId"] = "NOPE999"
        assert any("NOPE999" in p for p in validate_sarif(doc))

    def test_rule_index_disagreement_rejected(self, tmp_path):
        doc = render(tmp_path)
        doc["runs"][0]["results"][0]["ruleIndex"] += 1
        assert any("ruleIndex" in p for p in validate_sarif(doc))

    def test_zero_start_line_rejected(self, tmp_path):
        doc = render(tmp_path)
        loc = doc["runs"][0]["results"][0]["locations"][0]
        loc["physicalLocation"]["region"]["startLine"] = 0
        assert any("startLine" in p for p in validate_sarif(doc))

    def test_missing_driver_rejected(self, tmp_path):
        doc = render(tmp_path)
        del doc["runs"][0]["tool"]["driver"]
        assert any("driver" in p for p in validate_sarif(doc))

    def test_invalid_level_rejected(self, tmp_path):
        doc = render(tmp_path)
        doc["runs"][0]["results"][0]["level"] = "fatal"
        assert any("level" in p for p in validate_sarif(doc))


class TestCliIntegration:
    def test_format_sarif_end_to_end(self, tmp_path, capsys, monkeypatch):
        from repro.lint.cli import main

        bad = tmp_path / "planted.py"
        bad.write_text("import time\nSTART = time.time()\n")
        monkeypatch.chdir(tmp_path)
        code = main([str(bad), "--format", "sarif", "--no-baseline"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 1
        assert validate_sarif(doc) == []
        assert doc["runs"][0]["results"][0]["ruleId"] == "DET001"
