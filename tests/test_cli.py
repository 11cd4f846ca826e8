"""Tests for the command-line driver."""

import re
import socket

import pytest

from repro.cli import _check_grid_args, build_parser, main
from repro.engine.design_point import MAX_QUANTA


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_table1_args(self):
        args = build_parser().parse_args(["table1", "--apps", "hal"])
        assert args.apps == ["hal"]

    def test_fig3_default_app(self):
        args = build_parser().parse_args(["fig3"])
        assert args.app == "hal"

    def test_unknown_app_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig3", "--app", "doom"])

    def test_sweep_defaults(self):
        args = build_parser().parse_args(["sweep"])
        assert args.apps is None
        assert args.fractions == [0.5, 0.75, 1.0]
        assert args.policies == ["none"]
        assert args.workers == 1

    def test_sweep_args(self):
        args = build_parser().parse_args(
            ["sweep", "--apps", "hal", "man", "--fractions", "0.6", "1.0",
             "--policies", "none", "balanced", "--workers", "2"])
        assert args.apps == ["hal", "man"]
        assert args.fractions == [0.6, 1.0]
        assert args.policies == ["none", "balanced"]
        assert args.workers == 2

    def test_sweep_rejects_unknown_policy(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "--policies", "greedy"])


class TestCommands:
    def test_apps_command(self, capsys):
        assert main(["apps"]) == 0
        output = capsys.readouterr().out
        for name in ("straight", "hal", "man", "eigen"):
            assert name in output

    def test_allocate_command(self, capsys):
        assert main(["allocate", "--app", "hal"]) == 0
        output = capsys.readouterr().out
        assert "allocation:" in output
        assert "pseudo partition" in output

    def test_allocate_with_area_override(self, capsys):
        assert main(["allocate", "--app", "hal", "--area", "3000"]) == 0
        assert "3000" in capsys.readouterr().out

    def test_fig3_command(self, capsys):
        assert main(["fig3", "--app", "hal"]) == 0
        assert "Figure 3" in capsys.readouterr().out

    def test_s51_command(self, capsys):
        assert main(["s51", "--app", "hal"]) == 0
        assert "5.1" in capsys.readouterr().out

    def test_iterate_command(self, capsys):
        assert main(["iterate", "--app", "hal"]) == 0
        assert "Design iteration" in capsys.readouterr().out

    def test_table1_single_app(self, capsys):
        assert main(["table1", "--apps", "hal", "--budget", "200"]) == 0
        output = capsys.readouterr().out
        assert "Table 1" in output
        assert "hal" in output


class TestExtensionCommands:
    def test_multiasic_command(self, capsys):
        assert main(["multiasic", "--app", "hal", "--chips", "2"]) == 0
        output = capsys.readouterr().out
        assert "ASIC 1" in output
        assert "total speed-up" in output

    def test_multiasic_rejects_zero_chips(self):
        with pytest.raises(SystemExit):
            main(["multiasic", "--app", "hal", "--chips", "0"])

    def test_overheads_command(self, capsys):
        assert main(["overheads", "--app", "hal"]) == 0
        output = capsys.readouterr().out
        assert "overheads" in output
        assert "GE" in output

    def test_export_bsb(self, capsys):
        assert main(["export", "--app", "hal", "--what", "bsb"]) == 0
        assert capsys.readouterr().out.startswith("digraph")

    def test_export_cdfg(self, capsys):
        assert main(["export", "--app", "hal", "--what", "cdfg"]) == 0
        assert "digraph" in capsys.readouterr().out

    def test_export_dfg_picks_hottest(self, capsys):
        assert main(["export", "--app", "hal", "--what", "dfg"]) == 0
        output = capsys.readouterr().out
        assert "hal_B3" in output  # the integration loop body


class TestSweepCommand:
    def test_sweep_single_app(self, capsys):
        assert main(["sweep", "--apps", "hal",
                     "--fractions", "0.6", "1.0"]) == 0
        output = capsys.readouterr().out
        assert "Design-space sweep" in output
        assert "hal" in output
        assert "best point" in output
        assert "engine cache" in output

    def test_sweep_with_policy_axis(self, capsys):
        assert main(["sweep", "--apps", "hal", "--fractions", "0.8",
                     "--policies", "none", "balanced"]) == 0
        output = capsys.readouterr().out
        assert "designated" in output
        assert "balanced" in output

    def test_sweep_rejects_zero_workers(self):
        with pytest.raises(SystemExit):
            main(["sweep", "--apps", "hal", "--workers", "0"])

    def test_sweep_rejects_bad_fraction(self):
        with pytest.raises(SystemExit):
            main(["sweep", "--apps", "hal", "--fractions", "-0.5"])

    def test_sweep_rejects_empty_fractions(self):
        with pytest.raises(SystemExit):
            main(["sweep", "--apps", "hal", "--fractions"])

    def test_sweep_rejects_empty_policies(self):
        with pytest.raises(SystemExit):
            main(["sweep", "--apps", "hal", "--policies"])

    @pytest.mark.parametrize("command", ["sweep", "submit", "report"])
    @pytest.mark.parametrize("flags, message", [
        (["--fractions", "nan"], "--fractions must be positive and finite"),
        (["--fractions", "0.5", "inf"],
         "--fractions must be positive and finite"),
        (["--fractions", "1e400"], "--fractions must be positive and finite"),
        (["--quanta", "10001"], "--quanta must be in 1..10000"),
    ])
    def test_grid_rejects_unusable_values(self, command, flags, message):
        # Usage errors before any point is built, session opened or
        # service dialled.
        with pytest.raises(SystemExit, match=re.escape(message)):
            main([command, "--apps", "hal"] + flags)

    def test_grid_accepts_the_largest_quanta(self):
        args = build_parser().parse_args(
            ["sweep", "--fractions", "1.0", "--quanta", str(MAX_QUANTA)])
        assert _check_grid_args(args) is None

    def test_sweep_reports_overall_hit_rate(self, capsys):
        assert main(["sweep", "--apps", "hal",
                     "--fractions", "0.7", "0.7"]) == 0
        output = capsys.readouterr().out
        assert "overall hit rate:" in output


class TestCacheStoreCommands:
    def test_sweep_warm_rerun_hits_the_store(self, tmp_path, capsys):
        import re

        store_dir = str(tmp_path / "store")
        argv = ["sweep", "--apps", "hal",
                "--fractions", "0.6", "0.8", "1.0",
                "--cache-dir", store_dir]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(argv) == 0
        output = capsys.readouterr().out
        match = re.search(r"overall hit rate: ([0-9.]+)%", output)
        assert match is not None
        # 3 alloc + 3 eval hits vs 1 program compile miss.
        assert float(match.group(1)) > 80.0

    def test_cache_info_and_clear(self, tmp_path, capsys):
        import os

        store_dir = str(tmp_path / "store")
        assert main(["cache", "info", "--cache-dir", store_dir]) == 0
        assert "no store directory" in capsys.readouterr().out
        assert not os.path.exists(store_dir)  # inspection creates nothing
        assert main(["sweep", "--apps", "hal", "--fractions", "0.8",
                     "--cache-dir", store_dir]) == 0
        capsys.readouterr()
        assert main(["cache", "info", "--cache-dir", store_dir]) == 0
        output = capsys.readouterr().out
        assert "evals" in output
        assert "total" in output
        assert main(["cache", "clear", "--cache-dir", store_dir]) == 0
        assert "cleared" in capsys.readouterr().out
        assert main(["cache", "info", "--cache-dir", store_dir]) == 0
        assert "empty store" in capsys.readouterr().out

    def test_cache_requires_dir(self):
        with pytest.raises(SystemExit):
            main(["cache", "info"])

    def test_cache_compact_shrinks_then_store_still_serves(
            self, tmp_path, capsys):
        import os
        import re

        store_dir = str(tmp_path / "store")
        assert main(["sweep", "--apps", "straight",
                     "--fractions", "0.2", "0.3", "0.4",
                     "--cache-dir", store_dir]) == 0
        capsys.readouterr()
        before = sum(os.path.getsize(os.path.join(store_dir, name))
                     for name in os.listdir(store_dir))
        assert main(["cache", "compact", "--cache-dir", store_dir,
                     "--max-bytes", str(before // 2)]) == 0
        output = capsys.readouterr().out
        match = re.search(r"compacted .*: (\d+) kept, (\d+) dropped, "
                          r"(\d+) -> (\d+) bytes", output)
        assert match is not None
        assert int(match.group(2)) > 0            # something evicted
        assert int(match.group(4)) <= before // 2  # budget honoured
        # The surviving store still serves (and repopulates).
        assert main(["sweep", "--apps", "straight",
                     "--fractions", "0.2", "0.3", "0.4",
                     "--cache-dir", store_dir]) == 0
        assert "overall hit rate" in capsys.readouterr().out

    def test_cache_compact_needs_a_budget(self, tmp_path):
        with pytest.raises(SystemExit, match="max-bytes"):
            main(["cache", "compact",
                  "--cache-dir", str(tmp_path / "store")])

    def test_cache_compact_on_missing_store_is_polite(self, tmp_path,
                                                      capsys):
        import os

        store_dir = str(tmp_path / "typo-store")
        assert main(["cache", "compact", "--cache-dir", store_dir,
                     "--max-bytes", "10"]) == 0
        assert "no store directory" in capsys.readouterr().out
        assert not os.path.exists(store_dir)

    def test_table1_parser_accepts_cache_dir(self):
        args = build_parser().parse_args(
            ["table1", "--apps", "hal", "--cache-dir", "/tmp/somewhere"])
        assert args.cache_dir == "/tmp/somewhere"

    def test_table1_rejects_budget_below_one(self):
        with pytest.raises(SystemExit, match="--budget must be >= 1"):
            main(["table1", "--apps", "hal", "--budget", "0"])


class TestServiceParser:
    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.cache_dir is None
        assert args.slots == 1
        assert args.host == "127.0.0.1"
        assert args.port == 7421
        assert args.flush_interval == 2.0

    def test_serve_args(self):
        args = build_parser().parse_args(
            ["serve", "--cache-dir", "/tmp/store", "--port", "7500"])
        assert args.cache_dir == "/tmp/store"
        assert args.port == 7500

    def test_serve_has_no_workers_option(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--workers", "2"])

    def test_table1_has_no_workers_option(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(["table1", "--workers", "2"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --workers" \
            in capsys.readouterr().err

    def test_submit_defaults(self):
        args = build_parser().parse_args(["submit"])
        assert args.apps is None
        assert args.fractions == [0.5, 0.75, 1.0]
        assert args.wait is False

    def test_submit_wait(self):
        args = build_parser().parse_args(
            ["submit", "--apps", "hal", "--wait"])
        assert args.apps == ["hal"]
        assert args.wait is True

    def test_results_requires_job(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["results"])
        args = build_parser().parse_args(["results", "--job", "job-1"])
        assert args.job == "job-1"

    def test_cancel_requires_job(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["cancel"])

    def test_status_job_optional(self):
        assert build_parser().parse_args(["status"]).job is None

    def test_serve_hardening_flags(self):
        args = build_parser().parse_args(
            ["serve", "--scheduler", "fair", "--queue-cap", "64",
             "--job-ttl", "3600", "--max-jobs", "16",
             "--token-file", "/run/secret"])
        assert args.scheduler == "fair"
        assert args.queue_cap == 64
        assert args.job_ttl == 3600.0
        assert args.max_jobs == 16
        assert args.token_file == "/run/secret"

    def test_serve_rejects_unknown_scheduler(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--scheduler", "lifo"])

    def test_serve_refuses_nonloopback_without_token(self):
        with pytest.raises(SystemExit, match="token"):
            main(["serve", "--host", "0.0.0.0"])

    def test_serve_rejects_bad_bounds(self):
        for argv in (["serve", "--queue-cap", "0"],
                     ["serve", "--job-ttl", "-1"],
                     ["serve", "--max-jobs", "-2"]):
            with pytest.raises(SystemExit):
                main(argv)

    def test_token_and_token_file_conflict(self):
        with pytest.raises(SystemExit, match="not both"):
            main(["serve", "--token", "a", "--token-file", "b"])

    def test_token_file_is_read_and_stripped(self, tmp_path):
        from repro.cli import _resolve_secret

        secret = tmp_path / "secret"
        secret.write_text("  sesame\n")
        args = build_parser().parse_args(
            ["serve", "--token-file", str(secret)])
        assert _resolve_secret(args, "token") == "sesame"

    def test_empty_token_file_is_loud(self, tmp_path):
        secret = tmp_path / "secret"
        secret.write_text("\n")
        with pytest.raises(SystemExit, match="empty"):
            main(["serve", "--token-file", str(secret)])

    def test_client_commands_accept_tokens(self):
        for command in (["submit"], ["status"],
                        ["results", "--job", "j"],
                        ["cancel", "--job", "j"]):
            args = build_parser().parse_args(
                command + ["--token", "sesame"])
            assert args.token == "sesame"

    def test_submit_weight(self):
        args = build_parser().parse_args(["submit", "--weight", "3"])
        assert args.weight == 3
        # Unset, no weight is sent: the service (or API key) decides.
        assert build_parser().parse_args(["submit"]).weight is None
        with pytest.raises(SystemExit):
            main(["submit", "--weight", "0"])


class TestUniformCacheDir:
    """Every engine-running command accepts --cache-dir (ISSUE 3)."""

    @pytest.mark.parametrize("command", [
        ["table1"], ["fig3"], ["s51"], ["iterate"], ["allocate"],
        ["multiasic"], ["sweep"], ["serve"],
    ])
    def test_flag_parses(self, command):
        args = build_parser().parse_args(
            command + ["--cache-dir", "/tmp/store"])
        assert args.cache_dir == "/tmp/store"

    def test_warm_store_shared_across_commands(self, tmp_path, capsys):
        """allocate/fig3/s51/iterate against one store: the second
        command replays stages the first one spilled."""
        cache_dir = str(tmp_path / "store")
        assert main(["allocate", "--app", "hal",
                     "--cache-dir", cache_dir]) == 0
        from repro.engine import Session

        warm = Session(cache_dir=cache_dir)
        program = warm.program("hal")
        warm.restrictions(program.bsbs)
        assert warm.stats.hit_count("restrictions") == 1

    def test_fig3_with_cache_dir_matches_plain(self, tmp_path, capsys):
        assert main(["fig3", "--app", "hal"]) == 0
        plain = capsys.readouterr().out
        cache_dir = str(tmp_path / "store")
        assert main(["fig3", "--app", "hal",
                     "--cache-dir", cache_dir]) == 0
        cold = capsys.readouterr().out
        assert main(["fig3", "--app", "hal",
                     "--cache-dir", cache_dir]) == 0
        warm = capsys.readouterr().out
        assert cold == plain
        assert warm == plain

    def test_multiasic_with_cache_dir(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "store")
        assert main(["multiasic", "--app", "hal", "--chips", "2",
                     "--cache-dir", cache_dir]) == 0
        assert "total speed-up" in capsys.readouterr().out
        import os

        assert os.path.isdir(cache_dir)


class TestExportWarmStore:
    """``export`` resolves through the program store (ISSUE 10)."""

    def test_export_accepts_cache_dir(self):
        args = build_parser().parse_args(
            ["export", "--app", "hal", "--cache-dir", "/tmp/store"])
        assert args.cache_dir == "/tmp/store"

    def test_warm_cdfg_export_is_byte_identical_zero_compiles(
            self, tmp_path, capsys):
        store_dir = str(tmp_path / "store")
        argv = ["export", "--app", "hal", "--what", "cdfg",
                "--cache-dir", store_dir]
        assert main(argv) == 0
        cold = capsys.readouterr()
        assert "frontend compiles: 1 (program store hits: 0)" \
            in cold.err
        assert main(argv) == 0
        warm = capsys.readouterr()
        assert warm.out == cold.out
        assert "frontend compiles: 0 (program store hits: 1)" \
            in warm.err

    def test_stats_line_stays_off_stdout(self, capsys):
        assert main(["export", "--app", "hal", "--what", "bsb"]) == 0
        captured = capsys.readouterr()
        assert "frontend compiles" not in captured.out
        assert "frontend compiles" in captured.err

    def test_warm_dfg_export_is_byte_identical(self, tmp_path,
                                               capsys):
        store_dir = str(tmp_path / "store")
        argv = ["export", "--app", "hal", "--what", "dfg",
                "--cache-dir", store_dir]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == cold


class TestReportCommand:
    def test_report_defaults(self):
        args = build_parser().parse_args(["report"])
        assert args.fractions == [0.5, 0.75, 1.0]
        assert args.policies == ["none"]
        assert args.output == "report.html"

    def test_report_writes_selfcontained_page(self, tmp_path, capsys):
        output = str(tmp_path / "out.html")
        assert main(["report", "--apps", "hal",
                     "--fractions", "0.6", "1.0", "--quanta", "80",
                     "-o", output]) == 0
        printed = capsys.readouterr().out
        assert "Pareto front" in printed
        assert "wrote %s" % output in printed
        assert "frontend compiles:" in printed
        with open(output, encoding="utf-8") as handle:
            page = handle.read()
        assert page.startswith("<!DOCTYPE html>")
        assert "http://" not in page and "https://" not in page
        assert "hypervolume" in page
        assert "Schedule Gantt: hal" in page

    def test_report_cold_and_warm_are_byte_identical(self, tmp_path,
                                                     capsys):
        store_dir = str(tmp_path / "store")
        pages = []
        for name in ("cold.html", "warm.html"):
            output = str(tmp_path / name)
            assert main(["report", "--apps", "hal",
                         "--fractions", "0.6", "1.0",
                         "--quanta", "80", "--cache-dir", store_dir,
                         "-o", output]) == 0
            with open(output, encoding="utf-8") as handle:
                pages.append(handle.read())
        assert pages[0] == pages[1]

    def test_report_rejects_bad_grid(self):
        with pytest.raises(SystemExit):
            main(["report", "--apps", "hal", "--quanta", "0"])
        with pytest.raises(SystemExit):
            main(["report", "--apps", "hal", "--workers", "0"])


class TestPointLineRendering:
    def test_default_area_is_not_zero(self, capsys):
        from repro.cli import _print_point_line
        from repro.engine import DesignPoint, PointResult

        result = PointResult(point=DesignPoint(app="hal"),
                             allocation=None, speedup=100.0,
                             datapath_area=2000.0)
        _print_point_line(0, result)
        output = capsys.readouterr().out
        assert "area default" in output
        assert "area 0" not in output

    def test_explicit_area_rendered(self, capsys):
        from repro.cli import _print_point_line
        from repro.engine import DesignPoint, PointResult

        result = PointResult(point=DesignPoint(app="hal", area=4200.0),
                             allocation=None, speedup=100.0,
                             datapath_area=2000.0)
        _print_point_line(1, result)
        assert "area 4200" in capsys.readouterr().out

    def test_error_and_cancelled_lines(self, capsys):
        from repro.cli import _print_point_line
        from repro.engine import DesignPoint
        from repro.engine.design_point import failed_point_result
        from repro.errors import ReproError

        failed = failed_point_result(DesignPoint(app="nope"),
                                     ReproError("unknown app"))
        _print_point_line(2, failed)
        _print_point_line(3, None)
        output = capsys.readouterr().out
        assert "ERROR ReproError" in output
        assert "cancelled" in output


@pytest.fixture
def refusing_port():
    """A loopback port that refuses connections: bound, never listening."""
    sock = socket.socket()
    sock.bind(("127.0.0.1", 0))
    yield sock.getsockname()[1]
    sock.close()


class TestUnreachableService:
    """A command whose service is not listening exits with one line
    that names the address, instead of a traceback."""

    @pytest.mark.parametrize("argv, address", [
        (["status", "--port", "{port}"], "127.0.0.1:{port}"),
        (["status", "--http", "http://127.0.0.1:{port}"],
         "http://127.0.0.1:{port}"),
        (["submit", "--port", "{port}", "--apps", "hal",
          "--fractions", "0.5"], "127.0.0.1:{port}"),
        (["results", "--http", "http://127.0.0.1:{port}", "--job", "job-1"],
         "http://127.0.0.1:{port}"),
        (["cancel", "--port", "{port}", "--job", "job-1"],
         "127.0.0.1:{port}"),
        (["serve", "--join", "127.0.0.1:{port}"], "127.0.0.1:{port}"),
    ], ids=["status-tcp", "status-http", "submit-tcp", "results-http",
            "cancel-tcp", "serve-join"])
    def test_exits_with_one_line_naming_the_address(self, refusing_port,
                                                    argv, address):
        argv = [arg.format(port=refusing_port) for arg in argv]
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        message = str(excinfo.value.code)
        assert message.startswith("cannot reach the service at %s: "
                                  % address.format(port=refusing_port))
        assert "\n" not in message
