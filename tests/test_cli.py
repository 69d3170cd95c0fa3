"""Tests for the command-line entry point.

The CLI shares the in-process experiment-context cache, so running the
cheap experiments against the small world reuses the session's context.
"""

import pytest

from repro import cli


class TestArgumentParsing:
    def test_unknown_experiment_rejected(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["not-an-experiment"])

    def test_requires_at_least_one_experiment(self):
        with pytest.raises(SystemExit):
            cli.main([])

    @pytest.mark.parametrize(
        "flags",
        [
            ["--workers", "2"],
            ["--schedule", "static"],
            ["--chunk-cost", "64"],
            ["--split-giant-tables"],
            ["--max-slice-cost", "64"],
            ["--retries", "2"],
            ["--retry-backoff-ms", "100"],
            ["--breaker-threshold", "3"],
        ],
        ids=lambda flags: flags[0].lstrip("-"),
    )
    def test_pool_and_retry_flags_rejected(self, flags):
        # No experiment reads these; they used to be accepted and
        # silently ignored.  ``serve`` keeps its own.
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["figure7", "--small", *flags])
        assert excinfo.value.code == 2


class TestExecution:
    def test_figure7_small(self, capsys, small_context):
        exit_code = cli.main(["figure7", "--small"])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "Figure 7" in output
        assert "Paris, Texas, USA" in output

    def test_figure6_and_coverage_together(self, capsys, small_context):
        exit_code = cli.main(["figure6", "coverage", "--small"])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "Figure 6" in output
        assert "OVERALL" in output

    def test_table2_small(self, capsys, small_context):
        exit_code = cli.main(["table2", "--small"])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "Table 2" in output
        assert "Simpson's episodes" in output


class TestGracefulInterrupt:
    def test_interrupt_returns_130_and_still_saves_caches(
        self, capsys, small_context, tmp_path, monkeypatch
    ):
        # Ctrl-C mid-experiment: the CLI must flush the engine cache it
        # accumulated so far and report the conventional 128+SIGINT code.
        def interrupted_runner(context):
            raise KeyboardInterrupt

        monkeypatch.setitem(cli._EXPERIMENTS, "figure7", interrupted_runner)
        cache_dir = tmp_path / "cache"
        exit_code = cli.main(
            ["figure7", "--small", "--cache-dir", str(cache_dir)]
        )
        assert exit_code == cli.SIGINT_EXIT_CODE == 130
        assert (cache_dir / "search_results.cache").exists()
        assert "interrupted" in capsys.readouterr().err


class TestServeArguments:
    def test_serve_requires_socket(self):
        with pytest.raises(SystemExit):
            cli.main(["serve"])

    def test_serve_rejects_zero_workers(self):
        with pytest.raises(SystemExit):
            cli.main(["serve", "--socket", "/tmp/x.sock", "--workers", "0"])


class TestClientCommand:
    def test_annotate_requires_types(self, tmp_path):
        with pytest.raises(SystemExit):
            cli.main(
                [
                    "client",
                    "annotate",
                    "--socket",
                    str(tmp_path / "x.sock"),
                    "--cells",
                    "Louvre",
                ]
            )

    def test_annotate_requires_table_or_cells(self, tmp_path):
        with pytest.raises(SystemExit):
            cli.main(
                [
                    "client",
                    "annotate",
                    "--socket",
                    str(tmp_path / "x.sock"),
                    "--types",
                    "museum",
                ]
            )

    def test_unreachable_daemon_reports_error(self, capsys, tmp_path):
        exit_code = cli.main(
            ["client", "ping", "--socket", str(tmp_path / "nothing.sock")]
        )
        assert exit_code == 1
        assert "cannot reach daemon" in capsys.readouterr().err

    def test_round_trip_against_live_daemon(self, capsys, tmp_path, monkeypatch):
        # serve + client end to end, in-process: a daemon over the small
        # world's annotator, driven by the client subcommand.
        pytest.importorskip("fcntl")
        from repro.service.daemon import AnnotationDaemon, ServiceConfig
        from repro import quickstart_world
        from repro.core.annotator import EntityAnnotator

        world, classifier = quickstart_world()
        annotator = EntityAnnotator(classifier, world.search_engine)
        socket_path = tmp_path / "svc.sock"
        with AnnotationDaemon(annotator, socket_path, ServiceConfig()):
            assert cli.main(["client", "ping", "--socket", str(socket_path)]) == 0
            output = capsys.readouterr().out
            assert '"version": 1' in output
            assert (
                cli.main(
                    [
                        "client",
                        "annotate",
                        "--socket",
                        str(socket_path),
                        "--cells",
                        "Louvre",
                        "--types",
                        "museum",
                    ]
                )
                == 0
            )
            assert "cells" in capsys.readouterr().out


class TestCacheDir:
    def test_cache_dir_saves_then_warm_starts(self, capsys, small_context, tmp_path):
        cache_dir = tmp_path / "repro-cache"
        assert cli.main(["figure6", "--small", "--cache-dir", str(cache_dir)]) == 0
        err = capsys.readouterr().err
        assert "cold" in err and "saved" in err
        assert (cache_dir / "search_results.cache").exists()

        # Second invocation over the same world starts warm.
        assert cli.main(["figure6", "--small", "--cache-dir", str(cache_dir)]) == 0
        assert "warm from" in capsys.readouterr().err
