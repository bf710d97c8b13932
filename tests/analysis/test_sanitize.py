"""Determinism sanitizer: rules, pragmas, and the repo-clean gate."""

from __future__ import annotations

import textwrap
from pathlib import Path

import pytest

from repro.analysis.sanitize import (
    all_sanitize_rules,
    sanitize_findings_failed,
    sanitize_path,
    sanitize_source,
    sanitize_tree,
)

REPO_SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

DETERMINISTIC_PATH = "runtime/engine.py"
PERSISTENCE_PATH = "serve/journal.py"
NEUTRAL_PATH = "experiments/figures.py"


def findings(source, path=NEUTRAL_PATH):
    return sanitize_source(textwrap.dedent(source), path)


def codes(source, path=NEUTRAL_PATH):
    return [f.code for f in findings(source, path)]


class TestRuleMetadata:
    def test_rules_are_ordered_and_complete(self):
        rules = all_sanitize_rules()
        assert [r.code for r in rules] == [
            "S001", "S002", "S003", "S004", "S005",
        ]
        assert {r.severity for r in rules} == {"error", "warning"}


class TestUnseededRng:
    def test_default_rng_without_seed_flags_everywhere(self):
        src = """
        import numpy as np
        rng = np.random.default_rng()
        """
        assert codes(src) == ["S001"]

    def test_default_rng_with_seed_passes(self):
        src = """
        import numpy as np
        rng = np.random.default_rng(1234)
        """
        assert codes(src) == []

    def test_global_random_functions_flag(self):
        src = """
        import random
        x = random.random()
        y = random.randint(0, 7)
        """
        assert codes(src) == ["S001", "S001"]

    def test_seeded_random_instance_passes(self):
        src = """
        import random
        rng = random.Random(99)
        x = rng.random()
        """
        assert codes(src) == []


class TestZoneRules:
    def test_wall_clock_flags_in_deterministic_zone_only(self):
        src = """
        import time
        def stamp():
            return time.time()
        """
        assert codes(src, DETERMINISTIC_PATH) == ["S002"]
        assert codes(src, NEUTRAL_PATH) == []

    def test_json_dump_without_sort_keys_warns(self):
        src = """
        import json
        def save(payload, handle):
            json.dump(payload, handle)
        """
        assert codes(src, DETERMINISTIC_PATH) == ["S004"]
        assert codes(src, NEUTRAL_PATH) == []

    def test_json_dump_with_sort_keys_passes(self):
        src = """
        import json
        def save(payload, handle):
            json.dump(payload, handle, sort_keys=True)
        """
        assert codes(src, DETERMINISTIC_PATH) == []

    def test_builtin_hash_warns_in_deterministic_zone(self):
        src = """
        def key(value):
            return hash(value)
        """
        assert codes(src, DETERMINISTIC_PATH) == ["S005"]
        assert codes(src, NEUTRAL_PATH) == []

    def test_hashlib_is_not_flagged(self):
        src = """
        import hashlib
        def key(value):
            return hashlib.sha256(value).hexdigest()
        """
        assert codes(src, DETERMINISTIC_PATH) == []


class TestAtomicWrite:
    @pytest.mark.parametrize("zone", ["serve/journal.py", "core/training.py"])
    def test_plain_write_flags_in_persistence_zone(self, zone):
        src = """
        def save(path, text):
            with open(path, "w") as handle:
                handle.write(text)
        """
        assert codes(src, zone) == ["S003"]
        assert codes(src, NEUTRAL_PATH) == []

    def test_write_with_atomic_publish_passes(self):
        src = """
        import os
        def save(path, text):
            with open(path + ".tmp", "w") as handle:
                handle.write(text)
            os.replace(path + ".tmp", path)
        """
        assert codes(src, PERSISTENCE_PATH) == []

    def test_reads_and_appends_pass(self):
        src = """
        def tail(path, line):
            with open(path) as handle:
                handle.read()
            with open(path, "a") as handle:
                handle.write(line)
        """
        assert codes(src, PERSISTENCE_PATH) == []


class TestPragmas:
    def test_bare_pragma_suppresses_all_codes(self):
        src = """
        import numpy as np
        rng = np.random.default_rng()  # sanitize: ok
        """
        assert codes(src) == []

    def test_coded_pragma_suppresses_only_named_codes(self):
        src = """
        import numpy as np
        rng = np.random.default_rng()  # sanitize: ok S001
        """
        assert codes(src) == []
        src = """
        import numpy as np
        other = np.random.default_rng()  # sanitize: ok S002
        """
        assert codes(src) == ["S001"]  # wrong code: not suppressed

    def test_pragma_on_previous_line_applies(self):
        src = """
        import numpy as np
        # sanitize: ok S001
        rng = np.random.default_rng()
        """
        assert codes(src) == []


class TestVerdicts:
    def test_errors_always_fail(self):
        errors = findings(
            "import numpy as np\nrng = np.random.default_rng()\n"
        )
        assert sanitize_findings_failed(errors, strict=False)
        assert sanitize_findings_failed(errors, strict=True)

    def test_warnings_fail_only_under_strict(self):
        warnings = findings(
            "import json\n"
            "def save(p, h):\n"
            "    json.dump(p, h)\n",
            DETERMINISTIC_PATH,
        )
        assert [f.severity for f in warnings] == ["warning"]
        assert not sanitize_findings_failed(warnings, strict=False)
        assert sanitize_findings_failed(warnings, strict=True)

    def test_clean_source_passes_strict(self):
        assert not sanitize_findings_failed([], strict=True)


class TestTreeScan:
    def test_findings_are_labelled_relative_to_root(self, tmp_path):
        package = tmp_path / "pkg"
        package.mkdir()
        (package / "dirty.py").write_text(
            "import random\nx = random.random()\n"
        )
        (package / "clean.py").write_text("VALUE = 1\n")
        results = sanitize_tree(package)
        assert [f.path for f in results] == ["dirty.py"]
        assert results[0].code == "S001"

    def test_single_file_scan_matches_tree_scan(self, tmp_path):
        target = tmp_path / "dirty.py"
        target.write_text("import random\nx = random.choice([1, 2])\n")
        assert (
            sanitize_path(target, root=tmp_path)
            == sanitize_tree(tmp_path)
        )

    def test_repository_source_is_sanitize_clean(self):
        # The acceptance gate: `repro sanitize --strict` on src/repro
        # reports nothing (pragmas mark the deliberate exceptions).
        assert sanitize_tree(REPO_SRC) == []
