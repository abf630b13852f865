"""CLI tests: the train/test/generate/experiment workflow (Artifact A.5)."""

import json
import pathlib

import numpy as np
import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_train_defaults(self):
        args = build_parser().parse_args(["train"])
        assert args.episodes == 50 and args.embedding == "giph"

    def test_experiment_scale_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "fig4", "--scale", "huge"])


class TestWorkflow:
    def test_generate(self, capsys):
        rc = main(["generate", "--count", "2", "--num-tasks", "6", "--num-devices", "3"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "instance 0" in out and "instance 1" in out
        assert "action space" in out

    def test_train_then_test_roundtrip(self, tmp_path, capsys):
        rc = main(
            [
                "train",
                "--episodes", "3",
                "--num-tasks", "5",
                "--num-devices", "3",
                "--train-graphs", "2",
                "--embedding", "giph-ne-pol",
                "--logdir", str(tmp_path),
            ]
        )
        assert rc == 0
        run_dirs = list(tmp_path.iterdir())
        assert len(run_dirs) == 1
        run_dir = run_dirs[0]
        assert (run_dir / "agent.npz").exists()
        assert (run_dir / "args.json").exists()
        history = json.loads((run_dir / "train_data.json").read_text())
        assert len(history) == 3

        rc = main(["test", "--run-folder", str(run_dir), "--num-testing-cases", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "mean over 2 cases" in out
        test_dirs = [d for d in run_dir.iterdir() if d.name.startswith("test_")]
        assert len(test_dirs) == 1
        evals = json.loads((test_dirs[0] / "eval_data.json").read_text())
        assert len(evals) == 2

    def test_batched_train_is_worker_count_independent(self, tmp_path):
        runs = []
        for workers in ("1", "2"):
            logdir = tmp_path / f"workers-{workers}"
            rc = main(
                [
                    "train", "--episodes", "4", "--batch-episodes", "2",
                    "--workers", workers, "--num-tasks", "5", "--num-devices", "3",
                    "--train-graphs", "2", "--logdir", str(logdir),
                ]
            )
            assert rc == 0
            runs.append(next(logdir.iterdir()))
        serial, fanned = (np.load(run / "agent.npz") for run in runs)
        with serial, fanned:
            assert serial.files == fanned.files
            for name in serial.files:
                assert np.array_equal(serial[name], fanned[name]), name
        history = [(run / "train_data.json").read_text() for run in runs]
        assert history[0] == history[1] and len(json.loads(history[0])) == 4

    def test_test_with_noise(self, tmp_path, capsys):
        main(
            [
                "train", "--episodes", "2", "--num-tasks", "4", "--num-devices", "2",
                "--train-graphs", "1", "--embedding", "giph-ne-pol",
                "--logdir", str(tmp_path),
            ]
        )
        run_dir = next(tmp_path.iterdir())
        rc = main(
            ["test", "--run-folder", str(run_dir), "--num-testing-cases", "1", "--noise", "0.2"]
        )
        assert rc == 0

    def test_experiment_table1(self, capsys):
        rc = main(["experiment", "table1", "--scale", "quick"])
        assert rc == 0
        assert "Table 1" in capsys.readouterr().out


class TestExperimentRegistry:
    def test_unknown_id_fails_cleanly(self, capsys):
        # Used to escape as a raw ModuleNotFoundError traceback.
        rc = main(["experiment", "no-such-figure"])
        assert rc == 2
        out = capsys.readouterr().out
        assert "unknown experiment 'no-such-figure'" in out
        assert "fig4" in out and "ablation" in out  # lists every valid id

    def test_id_list_matches_package_contents(self):
        # The registry is the source of truth for CLI help; this pins it
        # to the modules that actually exist so neither can drift (the
        # old hand-written help string omitted `ablation`).
        import pathlib

        import repro.experiments as experiments
        from repro.experiments.registry import EXPERIMENT_IDS

        package_dir = pathlib.Path(experiments.__file__).parent
        harness = {
            "base", "config", "datasets", "registry", "reporting", "runner",
        }
        modules = {
            p.stem
            for p in package_dir.glob("*.py")
            if p.stem not in harness and not p.stem.startswith("_")
        }
        assert set(EXPERIMENT_IDS) == modules

    def test_help_generated_from_registry(self, capsys):
        from repro.experiments.registry import (
            EXPERIMENT_IDS,
            parallel_experiment_ids,
            serial_experiment_ids,
        )

        with pytest.raises(SystemExit):
            main(["experiment", "--help"])
        out = capsys.readouterr().out
        for experiment_id in EXPERIMENT_IDS:
            assert experiment_id in out, experiment_id
        # The stale hardcoded "(fig6, fig14)" workers note is gone: every
        # parallel id is named, and the serial-by-design ones separately.
        for experiment_id in parallel_experiment_ids():
            assert experiment_id in out
        assert serial_experiment_ids() == ("table1", "table7")

    def test_static_split_matches_run_signatures(self):
        # SERIAL_EXPERIMENT_IDS is declared statically (so help
        # generation stays import-free); this introspects every module's
        # actual `run` signature so the declaration cannot drift
        # (tests/parallel/test_seam.py pins that `backend` is the only
        # fan-out parameter there is).
        from repro.experiments.registry import (
            EXPERIMENT_IDS,
            SERIAL_EXPERIMENT_IDS,
            supports_backend,
        )

        for experiment_id in EXPERIMENT_IDS:
            expected = experiment_id not in SERIAL_EXPERIMENT_IDS
            assert supports_backend(experiment_id) is expected, experiment_id

    def test_help_does_not_import_experiment_modules(self):
        # The CLI builds help from the registry on every invocation;
        # generating it must never pull in the experiment modules (and
        # the machinery behind them) for `repro --help` or
        # non-experiment subcommands.
        import subprocess
        import sys

        code = (
            "import sys\n"
            "from repro.cli import build_parser\n"
            "from repro.experiments.registry import EXPERIMENT_IDS\n"
            "build_parser()\n"
            "heavy = set(EXPERIMENT_IDS) | {'runner', 'datasets'}\n"
            "loaded = [m for m in sys.modules\n"
            "          if m.rpartition('.')[0] == 'repro.experiments'\n"
            "          and m.rpartition('.')[2] in heavy]\n"
            "assert not loaded, loaded\n"
        )
        subprocess.run([sys.executable, "-c", code], check=True)

    def test_serial_experiment_notes_ignored_workers(self, capsys):
        rc = main(["experiment", "table1", "--scale", "quick", "--workers", "3"])
        assert rc == 0
        assert "runs serially by design" in capsys.readouterr().out


class TestShardCli:
    """`repro shard` wiring.  Planning is pure JSON (no experiment
    compute), so these run at quick scale; execution/merge semantics are
    covered at micro scale in tests/shard/."""

    def test_plan_writes_manifests_and_usage(self, tmp_path, capsys):
        rc = main(
            ["shard", "plan", "fig15", "--shards", "3", "--scale", "quick",
             "--out", str(tmp_path)]
        )
        assert rc == 0
        manifests = sorted(tmp_path.glob("shard-*.json"))
        assert [m.name for m in manifests] == [
            "shard-0of3.json", "shard-1of3.json", "shard-2of3.json"
        ]
        payload = json.loads(manifests[0].read_text())
        assert payload["experiment"] == "fig15"
        assert payload["cells"] == {"strategy": "modulo", "modulus": 3, "residue": 0}
        out = capsys.readouterr().out
        assert "repro shard run" in out and "repro shard merge" in out

    def test_plan_rejects_serial_experiment(self, capsys):
        rc = main(["shard", "plan", "table1", "--shards", "2", "--scale", "quick"])
        assert rc == 2
        assert "serially by design" in capsys.readouterr().out

    def test_plan_rejects_unknown_experiment(self, capsys):
        rc = main(["shard", "plan", "no-such-figure", "--shards", "2"])
        assert rc == 2
        assert "unknown experiment" in capsys.readouterr().out

    def test_run_rejects_stale_manifest(self, tmp_path, capsys):
        main(["shard", "plan", "fig15", "--shards", "1", "--scale", "quick",
              "--out", str(tmp_path)])
        manifest = tmp_path / "shard-0of1.json"
        payload = json.loads(manifest.read_text())
        payload["fingerprint"]["code"] = "f" * 64
        manifest.write_text(json.dumps(payload))
        rc = main(["shard", "run", str(manifest)])
        assert rc == 2
        assert "code fingerprint" in capsys.readouterr().out

    def test_merge_on_empty_dir_fails_cleanly(self, tmp_path, capsys):
        rc = main(["shard", "merge", str(tmp_path)])
        assert rc == 2
        assert "no shard-*.json manifests" in capsys.readouterr().out

    def test_experiment_backend_rejected_for_serial(self, capsys):
        rc = main(["experiment", "table1", "--scale", "quick", "--backend", "fork"])
        assert rc == 2
        assert "serially by design" in capsys.readouterr().out

    def test_test_accepts_workers_flag(self):
        args = build_parser().parse_args(
            ["test", "--run-folder", "x", "--workers", "2"]
        )
        assert args.workers == 2


class TestScenario:
    def test_list_shows_every_preset(self, capsys):
        from repro.scenarios import DEFAULT_REGISTRY

        rc = main(["scenario", "--list"])
        assert rc == 0
        out = capsys.readouterr().out
        for name in DEFAULT_REGISTRY.names():
            assert name in out

    def test_bare_scenario_defaults_to_list(self, capsys):
        rc = main(["scenario"])
        assert rc == 0
        assert "edge-churn" in capsys.readouterr().out

    def test_run_requires_name(self, capsys):
        rc = main(["scenario", "run"])
        assert rc == 2
        assert "needs a preset name" in capsys.readouterr().out

    def test_run_unknown_preset_fails_cleanly(self, capsys):
        rc = main(["scenario", "run", "no-such-preset"])
        assert rc == 2
        out = capsys.readouterr().out
        assert "unknown scenario" in out and "edge-churn" in out

    def test_run_unknown_policy_rejected(self):
        import pytest

        with pytest.raises(SystemExit):
            build_parser().parse_args(["scenario", "run", "edge-churn", "--policy", "alphago"])

    def test_policy_choices_are_the_serve_policy_table(self):
        import argparse

        from repro.serve.server import default_policy_factories

        subparsers = next(action for action in build_parser()._actions
                          if isinstance(action, argparse._SubParsersAction))
        policy = next(action for action in subparsers.choices["scenario"]._actions
                      if action.dest == "policies")
        assert policy.choices == sorted(default_policy_factories())

    def test_run_replays_preset(self, capsys):
        rc = main(
            ["scenario", "run", "stable-cluster", "--policy", "task-eft", "--seed", "3",
             "--events"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "scenario 'stable-cluster'" in out
        assert "arrival" in out
        assert "summary[task-eft]" in out

    def test_run_default_policies(self, capsys):
        rc = main(["scenario", "run", "compute-brownout"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "summary[random]" in out and "summary[task-eft]" in out
