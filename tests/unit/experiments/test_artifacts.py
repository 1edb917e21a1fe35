"""The artifact pipeline: results/ files regenerate byte-identically.

Full-matrix regeneration is exercised by ``python -m repro results
--regen --check`` (the CI drift job); here the cheap experiments prove
byte-identity against the committed files, and the drift detection is
driven against a scratch directory.
"""

import pytest

from repro.__main__ import main
from repro.experiments import ResultCache, Runner, artifacts, registry

#: Registry entries cheap enough for the unit suite (< 1 s together).
CHEAP = ("table2", "loc")


@pytest.fixture(scope="module")
def cheap_files(tmp_path_factory):
    runner = Runner(cache=ResultCache(tmp_path_factory.mktemp("cache")))
    return artifacts.render_artifacts(registry.expand(list(CHEAP)), runner)


class TestRenderArtifacts:
    def test_covers_both_formats(self, cheap_files):
        stems = {stem for entry in registry.expand(list(CHEAP))
                 for stem in entry.artefacts}
        assert set(cheap_files) == {
            f"{stem}.{ext}" for stem in stems for ext in ("txt", "csv")
        }

    def test_byte_identical_to_committed_results(self, cheap_files):
        for name, content in cheap_files.items():
            committed = (artifacts.results_dir() / name).read_text(encoding="utf-8")
            assert content == committed, f"results/{name} drifted"

    def test_deterministic_across_renders(self, cheap_files, tmp_path):
        again = artifacts.render_artifacts(
            registry.expand(list(CHEAP)), Runner(cache=ResultCache(tmp_path))
        )
        assert again == cheap_files


class TestRegenerateAndCheck:
    """``results --regen`` writes the files; the drift check is
    :func:`render_artifacts` diffed against them by :func:`diff_files`."""

    def _regen(self, tmp_path, out, tokens=None):
        args = ["results", "--regen", "--out", str(out),
                "--cache-dir", str(tmp_path / "cache")]
        if tokens is not None:
            args += ["--experiments", *tokens]
        assert main(args) == 0

    def _check(self, tmp_path, out, experiments=None):
        runner = Runner(cache=ResultCache(tmp_path / "cache"))
        files = artifacts.render_artifacts(experiments, runner)
        return artifacts.diff_files(files, out, complete=experiments is None)

    def test_regenerate_then_check_clean(self, tmp_path):
        experiments = registry.expand(list(CHEAP))
        out = tmp_path / "results"
        self._regen(tmp_path, out, CHEAP)
        stems = sum(len(entry.artefacts) for entry in experiments)
        assert len(list(out.iterdir())) == stems * 2  # txt + csv per stem
        assert self._check(tmp_path, out, experiments) == []

    def test_check_reports_drift_with_diff(self, tmp_path):
        experiments = registry.expand(["table2"])
        out = tmp_path / "results"
        self._regen(tmp_path, out, ["table2"])
        victim = out / "table2_synthesis.txt"
        victim.write_text(victim.read_text().replace("IDWT53", "IDWTXX"))
        drift = self._check(tmp_path, out, experiments)
        assert len(drift) == 1
        assert "table2_synthesis.txt" in drift[0]
        assert "-" in drift[0] and "+" in drift[0]  # unified diff body

    def test_check_reports_missing_file(self, tmp_path):
        experiments = registry.expand(["table2"])
        out = tmp_path / "results"
        self._regen(tmp_path, out, ["table2"])
        (out / "table2_ratios.csv").unlink()
        drift = self._check(tmp_path, out, experiments)
        assert any("missing" in report for report in drift)

    def test_full_registry_check_reports_orphan_file(self, tmp_path,
                                                     monkeypatch):
        """A file no experiment renders is drift when the whole registry
        is checked, and ignored when only some experiments are."""
        monkeypatch.setattr(registry, "all_experiments",
                            lambda: registry.expand(list(CHEAP)))
        out = tmp_path / "results"
        self._regen(tmp_path, out)
        assert self._check(tmp_path, out) == []
        (out / "retired.csv").write_text("stale\n")
        drift = self._check(tmp_path, out)
        assert len(drift) == 1
        assert "results/retired.csv" in drift[0]
        subset = registry.expand(["table2"])
        assert self._check(tmp_path, out, subset) == []
