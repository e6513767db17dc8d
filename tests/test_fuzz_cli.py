"""The fuzz CLI and its seat at the ``python -m repro`` front door."""

import json

from repro.fuzz.__main__ import main as fuzz_main
from repro.fuzz.runner import ENV_PLANT


class TestCampaignCli:
    def test_clean_seeds_exit_zero(self, tmp_path, capsys):
        corpus = str(tmp_path / "corpus.jsonl")
        code = fuzz_main([
            "--seed", "0", "--count", "4", "--corpus", corpus,
            "--horizon-ms", "500",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "4 cell(s) run" in out
        assert "ok=4" in out

    def test_explicit_seed_list_overrides_range(self, tmp_path, capsys):
        corpus = str(tmp_path / "corpus.jsonl")
        assert fuzz_main([
            "--seeds", "3", "7", "--corpus", corpus, "--horizon-ms", "500",
        ]) == 0
        seeds = [
            json.loads(line)["seed"] for line in open(corpus)
        ]
        assert seeds == [3, 7]

    def test_violations_exit_one_and_write_repros(self, tmp_path, capsys,
                                                  monkeypatch):
        monkeypatch.setenv(ENV_PLANT, "page-leak")
        corpus = str(tmp_path / "corpus.jsonl")
        code = fuzz_main([
            "--seeds", "0", "--corpus", corpus, "--horizon-ms", "500",
            "--shrink-budget", "12",
        ])
        assert code == 1
        out = capsys.readouterr().out
        assert "violation=1" in out
        assert "fuzz-repro-0.json" in out


class TestReplayCli:
    def test_replay_round_trip(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv(ENV_PLANT, "page-leak")
        corpus = str(tmp_path / "corpus.jsonl")
        fuzz_main([
            "--seeds", "0", "--corpus", corpus, "--horizon-ms", "500",
            "--shrink-budget", "12",
        ])
        repro = str(tmp_path / "fuzz-repro-0.json")
        # With the bug still planted, the repro reproduces: exit 1.
        assert fuzz_main(["--repro", repro]) == 1
        assert "page-conservation" in capsys.readouterr().out
        # With the bug "fixed", the same repro runs clean: exit 0.
        monkeypatch.delenv(ENV_PLANT)
        assert fuzz_main(["--repro", repro]) == 0


class TestFrontDoor:
    def test_repro_dispatch_knows_fuzz(self, tmp_path, capsys):
        from repro.__main__ import main as repro_main

        corpus = str(tmp_path / "corpus.jsonl")
        assert repro_main([
            "fuzz", "--seeds", "1", "--corpus", corpus, "--horizon-ms", "500",
        ]) == 0

    def test_corpus_of_another_profile_and_horizon_is_not_resumed(
        self, tmp_path, capsys
    ):
        # A corpus resumes by scenario fingerprint, not by seed alone:
        # chaos records at 500 ms do not count as done for a 2000 ms
        # scenario campaign on the same seeds.
        from repro.__main__ import main as repro_main

        corpus = str(tmp_path / "corpus.jsonl")
        assert repro_main([
            "chaos", "--seeds", "0", "1", "--horizon-ms", "500",
            "--corpus", corpus,
        ]) == 0
        capsys.readouterr()
        fuzz = [
            "fuzz", "--seeds", "0", "1", "--horizon-ms", "2000",
            "--corpus", corpus,
        ]
        assert repro_main(fuzz) == 0
        assert "2 cell(s) run, 0 resumed" in capsys.readouterr().out
        # Its own records do resume.
        assert repro_main(fuzz) == 0
        assert "0 cell(s) run, 2 resumed (ok=2;" in capsys.readouterr().out
        assert len(open(corpus).readlines()) == 4

    def test_help_lists_fuzz(self, capsys):
        from repro.__main__ import main as repro_main

        assert repro_main(["--help"]) == 0
        assert "fuzz" in capsys.readouterr().out
