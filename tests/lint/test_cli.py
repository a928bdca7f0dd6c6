"""CLI surface: exit codes, formats, pass/rule selection."""

import json

from repro.lint.cli import collect_files, main
from repro.lint.findings import RULES
from repro.lint.reporter import render_json, render_text
from repro.lint.findings import Finding


def write(tmp_path, name, code):
    path = tmp_path / name
    path.write_text(code)
    return path


class TestExitCodes:
    def test_clean_file_exits_zero(self, tmp_path, capsys):
        path = write(tmp_path, "ok.py", "x = 1\n")
        assert main([str(path)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_finding_exits_one(self, tmp_path, capsys):
        path = write(tmp_path, "bad.py", "import time\nt = time.time()\n")
        assert main([str(path)]) == 1
        out = capsys.readouterr().out
        assert "DET001" in out
        assert "bad.py:2" in out

    def test_missing_path_exits_two(self, tmp_path, capsys):
        assert main([str(tmp_path / "absent")]) == 2

    def test_unknown_pass_exits_two(self, tmp_path, capsys):
        path = write(tmp_path, "ok.py", "x = 1\n")
        assert main(["--passes", "nope", str(path)]) == 2

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in RULES:
            assert rule_id in out


class TestSelection:
    def test_rule_filter(self, tmp_path, capsys):
        code = "import time\nt = time.time()\nr = __import__('os').urandom(4)\n"
        path = write(tmp_path, "bad.py", code)
        assert main(["--rules", "DET001", str(path)]) == 1
        out = capsys.readouterr().out
        assert "DET001" in out

    def test_pass_subset(self, tmp_path, capsys):
        path = write(tmp_path, "bad.py", "import time\nt = time.time()\n")
        # units pass alone does not see the wall clock
        assert main(["--passes", "units", str(path)]) == 0

    def test_json_format(self, tmp_path, capsys):
        path = write(tmp_path, "bad.py", "import time\nt = time.time()\n")
        assert main(["--format", "json", str(path)]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload[0]["rule"] == "DET001"
        assert payload[0]["line"] == 2


class TestSanitizerExitCode:
    """SAN* findings exit 3 — distinct from static findings (1)."""

    def test_sanitizer_divergence_exits_three(self, tmp_path, monkeypatch):
        import repro.lint.sanitizer as sanitizer

        monkeypatch.setattr(
            sanitizer,
            "run_sanitizer",
            lambda: [Finding("<sanitizer>", 0, "SAN001", "diverged")],
        )
        path = write(tmp_path, "ok.py", "x = 1\n")
        assert main(["--sanitize", str(path)]) == 3

    def test_sanitizer_beats_static_findings(self, tmp_path, monkeypatch):
        import repro.lint.sanitizer as sanitizer

        monkeypatch.setattr(
            sanitizer,
            "run_sanitizer",
            lambda: [Finding("<sanitizer>", 0, "SAN002", "diverged")],
        )
        path = write(tmp_path, "bad.py", "import time\nt = time.time()\n")
        assert main(["--sanitize", str(path)]) == 3

    def test_clean_sanitizer_keeps_static_exit(self, tmp_path, monkeypatch):
        import repro.lint.sanitizer as sanitizer

        monkeypatch.setattr(sanitizer, "run_sanitizer", lambda: [])
        path = write(tmp_path, "ok.py", "x = 1\n")
        assert main(["--sanitize", str(path)]) == 0


class TestExplainBaseline:
    def test_prints_fingerprints(self, tmp_path, capsys):
        from repro.lint.findings import fingerprint

        path = write(tmp_path, "bad.py", "import time\nt = time.time()\n")
        assert main([str(path), "--explain-baseline"]) == 0
        out = capsys.readouterr().out
        assert "DET001" in out
        # first token of each line is the 16-hex fingerprint
        token = out.split()[0]
        assert len(token) == 16 and int(token, 16) >= 0


class TestCollect:
    def test_skips_pycache(self, tmp_path):
        (tmp_path / "__pycache__").mkdir()
        write(tmp_path, "__pycache__/junk.py", "x = 1\n")
        keep = write(tmp_path, "keep.py", "x = 1\n")
        assert collect_files([tmp_path]) == [keep]

    def test_deduplicates(self, tmp_path):
        path = write(tmp_path, "one.py", "x = 1\n")
        assert collect_files([tmp_path, path]) == [path]


class TestReporter:
    def test_text_sorted_and_counted(self):
        findings = [
            Finding("b.py", 9, "DET001", "late"),
            Finding("a.py", 1, "UNIT001", "early"),
        ]
        text = render_text(findings)
        assert text.index("a.py:1") < text.index("b.py:9")
        assert "2 finding(s)" in text
        assert "DET001×1" in text and "UNIT001×1" in text

    def test_json_includes_rule_summary(self):
        payload = json.loads(render_json([Finding("a.py", 1, "DET005", "m")]))
        assert payload[0]["summary"] == RULES["DET005"].summary
