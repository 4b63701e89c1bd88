"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main, make_jammer, make_protocol
from repro import MultiCast, MultiCastAdv, MultiCastC, MultiCastCore
from repro.adversary import BlanketJammer, FrontLoadedJammer


class TestFactories:
    def test_protocol_names(self):
        assert isinstance(make_protocol("core", 16, T=100), MultiCastCore)
        assert isinstance(make_protocol("multicast", 16), MultiCast)
        assert isinstance(make_protocol("multicast_c", 16, C=2), MultiCastC)
        assert isinstance(make_protocol("adv", 16), MultiCastAdv)

    def test_unknown_protocol_exits_listing_choices(self):
        with pytest.raises(SystemExit) as exc:
            make_protocol("carrier-pigeon", 16)
        message = str(exc.value)
        assert "carrier-pigeon" in message
        for choice in ("core", "multicast", "multicast_c", "adv", "adv_c"):
            assert choice in message

    def test_jammer_names(self):
        assert make_jammer("none", 100, seed=1) is None
        assert make_jammer("blanket", 0, seed=1) is None  # zero budget = off
        assert isinstance(make_jammer("blanket", 100, seed=1), BlanketJammer)
        assert isinstance(make_jammer("frontloaded", 100, seed=1), FrontLoadedJammer)

    def test_unknown_jammer_exits_listing_choices(self):
        with pytest.raises(SystemExit) as exc:
            make_jammer("emp", 100, seed=1)
        message = str(exc.value)
        assert "emp" in message
        for choice in ("blanket", "blackout", "bursts", "sweep", "random", "none"):
            assert choice in message


class TestCommands:
    def test_run_clean(self, capsys):
        rc = main(["run", "--protocol", "multicast", "--n", "16", "--seed", "3"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "success" in out and "slots" in out

    def test_run_jammed(self, capsys):
        rc = main(
            [
                "run", "--protocol", "core", "--n", "16",
                "--jammer", "blackout", "--budget", "20000", "--seed", "3",
            ]
        )
        assert rc == 0
        assert "Eve's spend" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "protocol, jammer, budget, max_slots",
        # the adv run is cut at 400k slots (of ~5.5M) to stay sub-second
        [("adv", "blanket", 2_000, 400_000), ("multicast", "sniper", 5_000, 200_000_000)],
    )
    def test_run_table_matches_run_broadcast(
        self, protocol, jammer, budget, max_slots, capsys
    ):
        """`run` goes through the lane dispatcher (the adv stream kernel,
        the windowed arena for sniper); its table must equal the one built
        from the scalar run_broadcast of the same trial."""
        from repro import run_broadcast
        from repro.analysis import render_table
        from repro.cli import _result_rows

        rc = main(
            [
                "run", "--protocol", protocol, "--n", "8", "--jammer", jammer,
                "--budget", str(budget), "--seed", "3",
                "--max-slots", str(max_slots),
            ]
        )
        out = capsys.readouterr().out
        reference = run_broadcast(
            make_protocol(protocol, 8, T=budget),
            8,
            adversary=make_jammer(jammer, budget, seed=4, n=8),
            seed=3,
            max_slots=max_slots,
        )
        expected = render_table(
            ["metric", "value"], _result_rows(reference), title=str(reference.protocol)
        )
        assert out == expected + "\n"
        assert rc == (0 if reference.success else 1)

    def test_channels_sweep(self, capsys):
        rc = main(["channels", "--n", "16", "--budget", "5000", "--seed", "2"])
        out = capsys.readouterr().out
        assert rc == 0
        # sweep covers C = 1, 2, 4, 8
        assert out.count("yes") == 4

    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestSweep:
    ARGS = [
        "sweep", "--protocols", "multicast,core", "--jammers", "blanket,sweep",
        "--n", "16", "--budget", "4000", "--trials", "2", "--quiet",
    ]

    def test_sweep_renders_cell_table(self, capsys):
        rc = main(self.ARGS + ["--workers", "2"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "protocol" in out and "cost/T" in out
        # one row per (protocol, jammer) cell
        for pair in ("core  blanket", "core    sweep", "multicast  blanket"):
            assert pair in out

    def test_sweep_progress_reports_elapsed_and_eta(self, capsys):
        """Without --quiet, every completed trial logs a stderr progress
        line carrying the trial key (which names the cell) plus wall-clock
        elapsed and the remaining-work ETA."""
        args = [a for a in self.ARGS if a != "--quiet"]
        rc = main(args + ["--workers", "1"])
        err = capsys.readouterr().err
        assert rc == 0
        lines = [line for line in err.splitlines() if line.startswith("[")]
        assert len(lines) == 2 * 2 * 2  # one per trial
        assert lines[0].startswith("[1/8] ")
        assert lines[-1].startswith("[8/8] ")
        for line in lines:
            assert "elapsed" in line and "eta" in line, line
        # the key locates the campaign's position cell by cell
        assert any("multicast/blanket/n16/T4000" in line for line in lines)

    def test_sweep_serial_matches_parallel(self, capsys):
        main(self.ARGS + ["--workers", "1"])
        serial = capsys.readouterr().out
        main(self.ARGS + ["--workers", "2"])
        parallel = capsys.readouterr().out
        assert serial == parallel

    def test_sweep_store_resumes(self, tmp_path, capsys):
        store = str(tmp_path / "r.jsonl")
        main(self.ARGS + ["--workers", "1", "--store", store])
        first = capsys.readouterr().out
        with open(store) as fh:
            lines = len(fh.read().strip().splitlines())
        assert lines == 2 * 2 * 2
        # re-run: everything already stored, identical table, no new lines
        main(self.ARGS + ["--workers", "1", "--store", store])
        again = capsys.readouterr().out
        assert again == first
        with open(store) as fh:
            assert len(fh.read().strip().splitlines()) == lines

    def test_sweep_spec_file(self, tmp_path, capsys):
        from repro.exp import CampaignSpec

        path = tmp_path / "spec.json"
        CampaignSpec(
            protocols=["multicast"], jammers=["blanket"], ns=[16], budget=4000, trials=1
        ).save(path)
        rc = main(["sweep", "--spec", str(path), "--quiet", "--workers", "1"])
        assert rc == 0
        assert "multicast" in capsys.readouterr().out

    def test_sweep_unknown_protocol_exits_with_choices(self):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--protocols", "pigeon", "--quiet"])
        assert "pigeon" in str(exc.value) and "multicast" in str(exc.value)

    def test_sweep_bad_grid_exits_cleanly(self):
        with pytest.raises(SystemExit, match="bad campaign spec"):
            main(["sweep", "--trials", "0", "--quiet"])
        with pytest.raises(SystemExit, match="bad campaign spec"):
            main(["sweep", "--n", "abc", "--quiet"])

    def test_sweep_spec_trials_override_is_validated(self, tmp_path):
        from repro.exp import CampaignSpec

        path = tmp_path / "spec.json"
        CampaignSpec(protocols=["multicast"], jammers=["none"], ns=[16], trials=3).save(path)
        with pytest.raises(SystemExit, match="bad campaign spec"):
            main(["sweep", "--spec", str(path), "--trials", "0", "--quiet"])

    def test_sweep_flags_override_spec(self, tmp_path, capsys):
        from repro.exp import CampaignSpec

        path = tmp_path / "spec.json"
        CampaignSpec(
            protocols=["multicast"], jammers=["blanket"], ns=[16], budget=4000, trials=2
        ).save(path)
        rc = main(
            ["sweep", "--spec", str(path), "--budget", "2000", "--jammers", "sweep",
             "--quiet", "--workers", "1"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "budget 2,000" in out  # not the spec's 4,000
        assert "sweep" in out and "blanket" not in out

    def test_sweep_resume_message_counts_own_campaign_only(self, tmp_path, capsys):
        store = str(tmp_path / "shared.jsonl")
        base = ["--n", "16", "--budget", "4000", "--trials", "2",
                "--workers", "1", "--store", store]
        main(["sweep", "--protocols", "multicast", "--jammers", "blanket", *base])
        capsys.readouterr()
        # different campaign, same store: nothing of ITS trials is stored yet
        main(["sweep", "--protocols", "core", "--jammers", "sweep", *base])
        assert "resuming" not in capsys.readouterr().err
        # same campaign again: now all 2 of its trials are stored
        main(["sweep", "--protocols", "core", "--jammers", "sweep", *base])
        assert "resuming: 2 stored trial(s)" in capsys.readouterr().err

    def test_sweep_bad_spec_file_exits_cleanly(self, tmp_path):
        with pytest.raises(SystemExit, match="cannot read campaign spec"):
            main(["sweep", "--spec", str(tmp_path / "nope.json")])
        bad = tmp_path / "bad.json"
        bad.write_text('{"oops": 1}')
        with pytest.raises(SystemExit, match="bad campaign spec"):
            main(["sweep", "--spec", str(bad)])
        bad.write_text("{not json")
        with pytest.raises(SystemExit, match="bad campaign spec"):
            main(["sweep", "--spec", str(bad)])


class TestReport:
    """CLI surface of `repro report`; the golden behaviour itself lives in
    tests/report/test_report_golden.py."""

    def test_check_against_the_committed_record(self, capsys):
        import pathlib

        repo = str(pathlib.Path(__file__).resolve().parent.parent)
        assert main(["report", "--check", "--root", repo]) == 0
        assert "match the stores" in capsys.readouterr().out

    def test_missing_root_exits_with_message(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["report", "--check", "--root", str(tmp_path)])
        assert "EXPERIMENTS.md" in str(exc.value)

    def test_check_flags_drift_without_writing(self, tmp_path, capsys):
        import pathlib
        import shutil

        repo = pathlib.Path(__file__).resolve().parent.parent
        root = tmp_path / "repo"
        (root / "experiments").mkdir(parents=True)
        shutil.copy(repo / "EXPERIMENTS.md", root / "EXPERIMENTS.md")
        shutil.copy(repo / "CLAIMS.md", root / "CLAIMS.md")
        for store in (repo / "experiments").glob("*.jsonl"):
            shutil.copy(store, root / "experiments" / store.name)
        shutil.copytree(repo / "experiments" / "figures", root / "experiments" / "figures")
        shutil.copytree(repo / "benchmarks", root / "benchmarks", ignore=shutil.ignore_patterns("*.py", "__pycache__"))
        # sabotage one generated file: --check must fail and must not repair it
        claims = root / "CLAIMS.md"
        sabotaged = claims.read_text() + "\ndrift\n"
        claims.write_text(sabotaged)
        assert main(["report", "--check", "--root", str(root)]) == 1
        assert "stale: CLAIMS.md" in capsys.readouterr().out
        assert claims.read_text() == sabotaged
        # write mode repairs exactly the drifted file
        assert main(["report", "--root", str(root)]) == 0
        assert "wrote CLAIMS.md" in capsys.readouterr().out
        assert main(["report", "--check", "--root", str(root)]) == 0


class TestObs:
    """``repro sweep --telemetry`` + ``repro obs``: the CLI face of repro.obs."""

    SWEEP = [
        "sweep", "--protocols", "multicast", "--jammers", "blanket",
        "--n", "16", "--budget", "3000", "--trials", "2", "--quiet",
    ]

    def _telemetry_sweep(self, tmp_path, capsys):
        store = str(tmp_path / "run.jsonl")
        rc = main(self.SWEEP + ["--store", store, "--telemetry"])
        assert rc == 0
        capsys.readouterr()
        return store

    def test_sweep_telemetry_then_obs_report(self, tmp_path, capsys):
        store = self._telemetry_sweep(tmp_path, capsys)
        rc = main(["obs", store])
        out = capsys.readouterr().out
        assert rc == 0
        assert "== repro.obs run report ==" in out
        assert "-- kernels --" in out
        assert "batch.kernel_passes" in out

    def test_sweep_telemetry_prints_summary_pointer(self, tmp_path, capsys):
        store = str(tmp_path / "run.jsonl")
        rc = main(self.SWEEP + ["--store", store, "--telemetry"])
        err = capsys.readouterr().err
        assert rc == 0
        assert "telemetry:" in err
        assert "repro obs" in err

    def test_obs_writes_figures(self, tmp_path, capsys):
        store = self._telemetry_sweep(tmp_path, capsys)
        figdir = str(tmp_path / "figs")
        rc = main(["obs", store, "--figures", figdir])
        out = capsys.readouterr().out
        assert rc == 0
        assert "telemetry_throughput.svg" in out

    def test_sweep_progress_line_reports_trials_per_second(self, capsys):
        args = [a for a in self.SWEEP if a != "--quiet"]
        rc = main(args + ["--workers", "1"])
        err = capsys.readouterr().err
        assert rc == 0
        progress = [line for line in err.splitlines() if line.startswith("[")]
        assert progress
        for line in progress:
            assert "trials/s" in line, line

    def test_telemetry_without_store_exits(self):
        with pytest.raises(SystemExit, match="--store"):
            main(self.SWEEP + ["--telemetry"])

    def test_obs_without_store_exits(self):
        with pytest.raises(SystemExit, match="store"):
            main(["obs"])

    def test_obs_missing_stream_points_at_telemetry_flag(self, tmp_path):
        with pytest.raises(SystemExit, match="--telemetry"):
            main(["obs", str(tmp_path / "never-ran.jsonl")])

    def test_obs_check_bench_gates_committed_records(self, capsys):
        import pathlib

        benchdir = str(pathlib.Path(__file__).resolve().parents[1] / "benchmarks")
        rc = main(["obs", "--check-bench", benchdir])
        out = capsys.readouterr().out
        assert rc == 0
        assert "check-bench: PASS" in out

    def test_obs_check_bench_fails_on_floor_violation(self, tmp_path, capsys):
        import json

        (tmp_path / "BENCH_x.json").write_text(json.dumps({
            "bench": "x", "schema": 1, "smoke": True,
            "results": {"t": {"speedups": {"c": {
                "baseline_s": 1.0, "fast_s": 1.0, "speedup": 1.0, "floor": 2.0,
            }}}},
        }))
        rc = main(["obs", "--check-bench", str(tmp_path)])
        out = capsys.readouterr().out
        assert rc == 1
        assert "check-bench: FAIL" in out

    def test_obs_baseline_requires_check_bench(self, tmp_path):
        with pytest.raises(SystemExit, match="check-bench"):
            main(["obs", str(tmp_path / "s.jsonl"), "--baseline", str(tmp_path)])
