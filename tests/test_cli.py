"""Tests for the command-line interface."""

import argparse
import dataclasses
import json

import pytest

from repro.cli import (
    BUG_PAIRS,
    FILESYSTEMS,
    SPEC_FLAGS,
    build_parser,
    main,
    spec_from_args,
)
from repro.dist.spec import CheckSpec
from repro.mc.persistence import snapshot_document
from repro.mc.statestore import make_store

STORE, TRUE, APPEND = "_StoreAction", "_StoreTrueAction", "_AppendAction"
POOLS = ("data-heavy", "deep-tree", "default", "metadata-heavy",
         "rename-storm")
STRATEGY_NAMES = ("remount", "no-remount", "vfs-api", "ioctl", "vm-snapshot")

#: option -> (dest, default, type, choices, action) of the spec flags
#: every campaign command takes
CAMPAIGN_FLAGS = {
    "--check-every": ("check_every", 1, "int", None, STORE),
    "--equalize": ("equalize", False, None, None, TRUE),
    "--fs": ("fs", [], None, None, APPEND),
    "--fsck-every": ("fsck_every", None, "int", None, STORE),
    "--fsck-oracle": ("fsck_oracle", False, None, None, TRUE),
    "--inject-bug": ("inject_bug", [], None, None, APPEND),
    "--input-profile": ("input_profile", [], None, None, APPEND),
    "--max-ops": ("max_ops", None, "int", None, STORE),
    "--pool": ("pool", "default", None, POOLS, STORE),
    "--state-store": ("state_store", "exact", None, None, STORE),
    "--strategy": ("strategy", None, None, STRATEGY_NAMES, STORE),
    "--unit-depth": ("dist_depth", 12, "int", None, STORE),
    "--units": ("units", 8, "int", None, STORE),
    "--voting": ("voting", False, None, None, TRUE),
}
FLEET_FLAGS = {
    "--profile": ("profile", False, None, None, TRUE),
    "--trail-dir": ("trail_dir", None, None, None, STORE),
}

#: the public flag surface of the three campaign commands, as it stood
#: before their spec flags came from one table
SURFACE = {
    "check": {
        **CAMPAIGN_FLAGS, **FLEET_FLAGS,
        "--coverage": ("coverage", False, None, None, TRUE),
        "--depth": ("depth", 2, "int", None, STORE),
        "--minimize": ("minimize", False, None, None, TRUE),
        "--mode": ("mode", "dfs", None, ("dfs", "random"), STORE),
        "--por": ("por", False, None, None, TRUE),
        "--seed": ("seed", 0, "int", None, STORE),
        "--state-file": ("state_file", None, None, None, STORE),
        "--workers": ("workers", None, "int", None, STORE),
    },
    "swarm": {
        **CAMPAIGN_FLAGS, **FLEET_FLAGS,
        "--seed": ("seed", 1, "int", None, STORE),
        "--workers": ("workers", 2, "int", None, STORE),
    },
    "submit": {
        **CAMPAIGN_FLAGS,
        "--job-workers": ("job_workers", 1, "int", None, STORE),
        "--priority": ("priority", 0, "int", None, STORE),
        "--seed": ("seed", 1, "int", None, STORE),
        "--socket": ("socket", "repro-server.sock", None, None, STORE),
        "--tcp": ("tcp", None, None, None, STORE),
        "--tenant": ("tenant", "default", None, None, STORE),
        "--watch": ("watch", False, None, None, TRUE),
    },
}


def surface(command):
    """option -> (dest, default, type, choices, action) of a subcommand."""
    subparsers = next(action for action in build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction))
    rows = {}
    for action in subparsers.choices[command]._actions:
        if isinstance(action, argparse._HelpAction):
            continue
        for option in action.option_strings:
            rows[option] = (action.dest, action.default,
                            getattr(action.type, "__name__", action.type),
                            tuple(action.choices) if action.choices else None,
                            type(action).__name__)
    return rows


#: CheckSpec fields no flag fills directly, and why
UNFLAGGED_FIELDS = {
    "include_extended": "auto from the file systems; hunt_spec sets it",
    "backtrack_probability": "library callers only",
    "unit_operations": "derived from --max-ops and --units",
    "input_profile": "derived from --input-profile",
    "profile_rotation": "derived from --input-profile",
    "fsck_every": "derived from --fsck-every and --fsck-oracle",
}


class TestParserSurface:
    @pytest.mark.parametrize("command", sorted(SURFACE))
    def test_flags_dests_and_defaults_are_unchanged(self, command):
        assert surface(command) == SURFACE[command]

    def test_every_spec_field_has_a_flag_or_is_listed(self):
        flagged = {field for _flag, _commands, field, _keywords in SPEC_FLAGS
                   if field is not None}
        fields = {item.name for item in dataclasses.fields(CheckSpec)}
        assert flagged.isdisjoint(UNFLAGGED_FIELDS)
        assert flagged | set(UNFLAGGED_FIELDS) == fields

    def test_flags_read_back_as_the_spec(self):
        args = build_parser().parse_args([
            "check", "--fs", "verifs1", "--fs", "verifs2", "--por",
            "--depth", "3", "--max-ops", "500", "--units", "4",
            "--input-profile", "boundary", "--input-profile", "uniform",
            "--fsck-oracle", "--unit-depth", "9", "--coverage"])
        assert spec_from_args(args) == CheckSpec(
            filesystems=("verifs1", "verifs2"), mode="dfs", depth=3,
            por=True, max_ops=500, units=4, unit_operations=125,
            max_depth=9, base_seed=0, input_profile="boundary",
            profile_rotation=("boundary", "uniform"), fsck_every=10,
            coverage=True)


class TestList:
    def test_lists_everything(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        for name in FILESYSTEMS:
            assert name in output
        assert "remount" in output
        assert "write-hole-stale" in output


#: a finished unit's run record, as a snapshot's ``unit_results`` holds it
RECORD = {"index": 0, "seed": 1, "worker_id": "coordinator"}


def snapshot_with_units(unit_results) -> str:
    """An otherwise valid state file whose ``unit_results`` is given."""
    return json.dumps({**snapshot_document(make_store("exact")),
                       "unit_results": unit_results})


#: state-file writers (a local run under hc, a one-unit campaign) and
#: the runs that resume their files
HC_RUN = ["--mode", "dfs", "--depth", "1", "--state-store", "hc"]
ONE_UNIT_CAMPAIGN = ["--mode", "random", "--workers", "0", "--units", "1",
                     "--max-ops", "10"]
LOCAL_DFS = ["--mode", "dfs", "--depth", "1"]
TWO_UNITS = ["--mode", "random", "--workers", "0", "--units", "2",
             "--max-ops", "10"]


class TestCheck:
    def test_clean_pair_exits_zero(self, capsys):
        code = main(["check", "--fs", "verifs1", "--fs", "verifs2",
                     "--mode", "dfs", "--depth", "2"])
        assert code == 0
        output = capsys.readouterr().out
        assert "no discrepancies found" in output
        assert "operations" in output
        # a local run is the one-unit campaign and reads as it always has
        for line in ("new states : 85", "dup hits   : 345 (80.2% of visits)",
                     "stopped    : state space exhausted",
                     "reductions : 0 slept (POR), 0 memo hits, "
                     "253 restores elided"):
            assert line in output.splitlines()
        assert "workers" not in output and "speedup" not in output

    def test_single_fs_rejected(self, capsys):
        assert main(["check", "--fs", "ext2"]) == 2
        assert "at least twice" in capsys.readouterr().err

    def test_unknown_fs_rejected(self, capsys):
        # 2, not 1: a typo must never pass for a discrepancy found
        assert main(["check", "--fs", "ext2", "--fs", "reiserfs",
                     "--depth", "1"]) == 2
        assert "unknown file system 'reiserfs'" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["check", "swarm", "submit"])
    def test_zero_units_rejected(self, command, capsys):
        argv = [command, "--fs", "verifs1", "--fs", "verifs2",
                "--units", "0"]
        if command == "check":
            argv += ["--mode", "random", "--workers", "0"]
        assert main(argv) == 2
        assert "at least one work unit" in capsys.readouterr().err

    def test_unknown_bug_rejected(self, capsys):
        assert main(["check", "--fs", "verifs1", "--fs", "verifs2",
                     "--inject-bug", "not-a-bug"]) == 2
        assert "unknown bug 'not-a-bug'" in capsys.readouterr().err

    def test_bug_into_a_kernel_fs_rejected(self, capsys):
        # it used to be dropped silently: exit 0, nothing injected
        assert main(["check", "--fs", "verifs1", "--fs", "ext4",
                     "--inject-bug", "write-hole-stale"]) == 2
        assert "must be a verifs" in capsys.readouterr().err

    def test_duplicate_fs_names_get_unique_labels(self, capsys):
        code = main(["check", "--fs", "verifs2", "--fs", "verifs2",
                     "--mode", "random", "--max-ops", "50"])
        assert code == 0
        output = capsys.readouterr().out.splitlines()
        for line in ("new states : 28", "dup hits   : 23 (45.1% of visits)",
                     "stopped    : operation budget"):
            assert line in output
        assert not any(line.startswith("reductions") for line in output)

    def test_kernel_pair(self, capsys):
        code = main(["check", "--fs", "ext2", "--fs", "ext4",
                     "--mode", "random", "--max-ops", "60"])
        assert code == 0

    def test_explicit_strategy(self, capsys):
        code = main(["check", "--fs", "ext2", "--fs", "ext4",
                     "--strategy", "vfs-api",
                     "--mode", "random", "--max-ops", "60"])
        assert code == 0

    def test_coverage_flag(self, capsys):
        """A local run prints its coverage once; a fleet's records keep
        none, so ``--workers`` prints none for any N, zero included."""
        argv = ["check", "--fs", "verifs1", "--fs", "verifs2",
                "--mode", "random", "--max-ops", "80", "--coverage"]
        assert main(argv) == 0
        assert capsys.readouterr().out.count("operation coverage") == 1
        assert main(argv + ["--workers", "0", "--units", "2"]) == 0
        assert "coverage" not in capsys.readouterr().out

    def test_voting_flag_three_way(self, capsys):
        code = main(["check", "--fs", "verifs1", "--fs", "ext4",
                     "--fs", "verifs2", "--voting",
                     "--mode", "random", "--max-ops", "60"])
        assert code == 0

    def test_state_file_roundtrip(self, tmp_path, capsys):
        state_file = str(tmp_path / "state.json")
        assert main(["check", "--fs", "verifs1", "--fs", "verifs2",
                     "--mode", "dfs", "--depth", "2",
                     "--state-file", state_file]) == 0
        capsys.readouterr()
        assert main(["check", "--fs", "verifs1", "--fs", "verifs2",
                     "--mode", "dfs", "--depth", "2",
                     "--state-file", state_file]) == 0
        output = capsys.readouterr().out
        assert "new states : 0" in output  # resumed: nothing re-explored
        assert "operations : 0" in output  # ... and nothing re-run

    def test_a_finished_campaign_resumes_to_nothing(self, tmp_path,
                                                    capsys):
        """Run twice on one state file, a one-unit campaign runs its unit
        once: the second run counts no work and adds no state."""
        argv = ["check", "--fs", "verifs1", "--fs", "verifs2",
                "--mode", "random", "--max-ops", "300", "--workers", "0",
                "--units", "1", "--state-file", str(tmp_path / "F.json")]
        assert main(argv) == 0
        assert "operations : 300" in capsys.readouterr().out
        assert main(argv) == 0
        output = capsys.readouterr().out.splitlines()
        for line in ("operations : 0", "new states : 0",
                     "sim time   : 0.000s (0.0 ops/s)"):
            assert line in output
        assert any(line.startswith("resumed    : 1 finished unit(s), 125 "
                                   "state(s)") for line in output)


    @pytest.mark.parametrize("workers", [None, "0"])
    @pytest.mark.parametrize("content", [
        '{"version": 4, "sto', "[1]",
        snapshot_with_units({"0": RECORD}),
        snapshot_with_units([RECORD, 7]),
        snapshot_with_units([{**RECORD, "index": "0"}]),
        snapshot_with_units([RECORD, RECORD]),
        snapshot_with_units([{**RECORD, "index": 1}]),
    ], ids=["torn", "not-a-snapshot", "units-not-a-list", "unit-not-an-object",
            "index-not-an-integer", "index-repeats", "index-outside-spec"])
    def test_malformed_state_file_is_invalid_input(self, tmp_path, capsys,
                                                   content, workers):
        state_file = tmp_path / "state.json"
        state_file.write_text(content)
        argv = ["check", "--fs", "verifs1", "--fs", "verifs2",
                "--state-file", str(state_file)]
        argv += (["--mode", "dfs", "--depth", "1"] if workers is None else
                 ["--mode", "random", "--workers", workers, "--units", "1",
                  "--max-ops", "10"])
        assert main(argv) == 2  # not 1: nothing was checked
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(state_file) in err

    @pytest.mark.parametrize("written,resumed,named", [
        pytest.param(HC_RUN, LOCAL_DFS, ("hc:4", "exact"), id="None"),
        pytest.param(HC_RUN, TWO_UNITS, ("hc:4", "exact"), id="0"),
        pytest.param(ONE_UNIT_CAMPAIGN, TWO_UNITS, ("spec", "units"),
                     id="0-another-spec"),
        pytest.param(ONE_UNIT_CAMPAIGN, LOCAL_DFS, ("spec", "mode"),
                     id="None-a-campaign-file"),
        pytest.param(["--mode", "random", "--max-ops", "10"],
                     ["--mode", "random", "--max-ops", "20"],
                     ("spec", "max_ops"), id="None-another-max-ops"),
    ])
    def test_state_file_of_another_store_is_invalid_input(
            self, tmp_path, capsys, written, resumed, named):
        """A resume loads the snapshot's table as the run's table and
        runs the spec's units without a record, so a snapshot it would
        resume wrongly is refused, not silently run on: an ``hc``
        snapshot under ``exact``, or a ``--units 1`` campaign's records
        under ``--units 2`` (another per-unit budget) or under a local
        run, the one-unit campaign of another spec -- as is a local
        run's own file under another ``--max-ops``."""
        state_file = str(tmp_path / "state.json")
        assert main(["check", "--fs", "verifs1", "--fs", "verifs2",
                     *written, "--state-file", state_file]) == 0
        capsys.readouterr()
        assert main(["check", "--fs", "verifs1", "--fs", "verifs2",
                     "--state-store", "exact", "--state-file", state_file,
                     *resumed]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and state_file in err
        assert all(name in err for name in named)


class TestMalformedTrail:
    @pytest.mark.parametrize("command", ["replay", "minimize"])
    @pytest.mark.parametrize("document", [
        [1, 2],
        [],
        {"format": "mcfs-trail", "version": 1, "spec": 5},
        {"format": "mcfs-trail", "version": 1, "report": {}},
    ], ids=["list", "empty-list", "spec-not-a-dict", "no-spec"])
    def test_exits_two(self, tmp_path, capsys, command, document):
        path = tmp_path / "bad.trail.json"
        path.write_text(json.dumps(document))
        assert main([command, str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: ")


class TestAnalyze:
    def test_clean_file_outside_the_package_is_clean(self, tmp_path,
                                                      capsys):
        clean = tmp_path / "clean.py"
        clean.write_text("def f():\n    return sorted({1, 2})\n")
        assert main(["analyze", "--strict", str(clean)]) == 0
        assert "0 finding(s), 0 error(s)" in capsys.readouterr().out


class TestBugdemo:
    def test_every_bug_reproducible(self, capsys):
        for bug_id in BUG_PAIRS:
            code = main(["bugdemo", "--bug", bug_id])
            output = capsys.readouterr().out
            assert code == 1, bug_id  # exit 1 = discrepancy found
            assert "MCFS discrepancy" in output, bug_id

    def test_unknown_bug(self, capsys):
        assert main(["bugdemo", "--bug", "not-a-bug"]) == 2
        assert "unknown bug" in capsys.readouterr().err
