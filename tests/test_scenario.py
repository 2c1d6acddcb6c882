import csv
import itertools
import math
import re
from dataclasses import fields, is_dataclass, replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import prebuf.admission
import prebuf.cli
import prebuf.playout
import prebuf.scenario
from prebuf import (AdmissionConfig, ConfigError, ScenarioConfig,
                    ShadowingConfig, VideoSpec, default_video_spec,
                    load_config, run_buffer_sweep, run_multiuser,
                    run_single_user)
from prebuf.admission import MAX_COUNT
from prebuf.cli import main

V = 250_000.0
TRAJECTORY_OVERFLOW = ("trajectory positions overflow: user_start_m + "
                       "user_speed_mps * slot_duration_s * slot must be "
                       "finite in every slot")


class TestConfig:
    def test_defaults_match_two_cell_setup(self):
        cfg = ScenarioConfig()
        assert cfg.bs_positions_m == (0.0, 550.0)
        assert cfg.video.num_slots == 96
        assert cfg.video.bits_per_slot == V
        assert cfg.video.bits_per_slot / cfg.video.slot_duration_s \
            == pytest.approx(1.5e6)
        assert cfg.video.max_carryover_bits == 5 * V
        assert cfg.link.total_power_dbm == 46.0
        assert cfg.link.num_system_prbs == 50
        assert cfg.shadowing.sigma_db == 10.0

    def test_trajectory_spans_lookahead(self):
        cfg = ScenarioConfig()
        traj = cfg.trajectory_m()
        assert traj[0] == 35.0
        assert traj.size == 96
        assert traj[-1] == pytest.approx(35.0 + 30.0 * 95 / 6)

    def test_empty_file_reproduces_defaults(self, tmp_path):
        path = tmp_path / "empty.ini"
        path.write_text("")
        assert load_config(path) == ScenarioConfig()

    def test_empty_path_refused(self):
        # Path("") would name the working directory
        with pytest.raises(ConfigError, match="^config path is empty$"):
            load_config("")

    def test_overrides(self, tmp_path):
        path = tmp_path / "cfg.ini"
        path.write_text("""
[scenario]
seed = 7
user_speed_mps = 20
bs_positions_m = 0 400
[video]
num_slots = 48
[link]
snr_gap_db = 3
[shadowing]
sigma_db = 0
""")
        cfg = load_config(path)
        assert cfg.seed == 7
        assert cfg.user_speed_mps == 20.0
        assert cfg.bs_positions_m == (0.0, 400.0)
        assert cfg.video.num_slots == 48
        assert cfg.link.snr_gap_db == 3.0
        assert cfg.shadowing.sigma_db == 0.0

    def test_bits_per_slot_override_alone(self, tmp_path):
        path = tmp_path / "rate.ini"
        path.write_text("[video]\nbits_per_slot = 300000\n")
        cfg = load_config(path)
        assert cfg.video.bits_per_slot == 300_000.0
        assert cfg.video.bits_per_slot / cfg.video.slot_duration_s \
            == pytest.approx(1.8e6)

    def test_avg_rate_bps_is_unknown_key(self, tmp_path):
        path = tmp_path / "rate.ini"
        path.write_text("[video]\navg_rate_bps = 1500000\n")
        with pytest.raises(ConfigError, match="avg_rate_bps"):
            load_config(path)

    def test_unknown_key_named_in_error(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[video]\nbitz = 3\n")
        with pytest.raises(ConfigError, match="bitz"):
            load_config(path)

    def test_unknown_section_rejected(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[nonsense]\nx = 1\n")
        with pytest.raises(ConfigError, match="nonsense"):
            load_config(path)

    @pytest.mark.parametrize("key", ["lookahead_s", "cell_radius_m"])
    def test_removed_keys_rejected(self, tmp_path, key):
        path = tmp_path / "old.ini"
        path.write_text(f"[scenario]\n{key} = 8\n")
        with pytest.raises(ConfigError, match=key):
            load_config(path)
        assert main(["single-user", "--config", str(path),
                     "--out", str(tmp_path)]) == 1

    @pytest.mark.parametrize("kwargs", [
        {"user_start_m": np.nan},
        {"user_speed_mps": np.nan},
        {"user_speed_mps": np.inf},
        {"bs_positions_m": (0.0, np.nan)},
        {"seed": -1},
        # finite fields whose trajectory overflows
        {"user_speed_mps": 1e308},
        {"user_start_m": 1e308, "user_speed_mps": 1e307},
        {"video": replace(default_video_spec(), slot_duration_s=1e308)},
    ])
    def test_scenario_fields_rejected(self, kwargs):
        with pytest.raises(ValueError) as exc:
            ScenarioConfig(**kwargs)
        assert type(exc.value) is ValueError

    @pytest.mark.parametrize("seed", [np.nan, np.inf, 2.5, True])
    def test_seed_must_be_int(self, seed):
        with pytest.raises(ValueError, match="seed") as exc:
            ScenarioConfig(seed=seed)
        assert type(exc.value) is ValueError

    def test_numpy_int_seed_accepted(self):
        trace = ScenarioConfig(seed=np.int64(3)).make_trace()
        assert np.array_equal(trace.gain_db,
                              ScenarioConfig(seed=3).make_trace().gain_db)

    @pytest.mark.parametrize("kwargs", [
        {"sigma_db": np.nan},
        {"sigma_db": np.inf},
        {"sigma_db": -1.0},
        {"sigma_db": 1e200},
        {"decorrelation_m": np.nan},
        {"decorrelation_m": -1.0},
    ])
    def test_shadowing_fields_rejected(self, kwargs):
        with pytest.raises(ValueError) as exc:
            ShadowingConfig(**kwargs)
        assert type(exc.value) is ValueError

    def test_sub_configs_overflowing_together_rejected(self, tmp_path):
        # each section is valid alone; the trajectory they make is not
        path = tmp_path / "slot.ini"
        path.write_text("[video]\nslot_duration_s = 1e308\n")
        with pytest.raises(ConfigError) as exc:
            load_config(path)
        assert str(exc.value) == TRAJECTORY_OVERFLOW

    def test_unparsable_value_rejected(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[scenario]\nseed = soon\n")
        with pytest.raises(ConfigError, match="seed"):
            load_config(path)

    def test_every_field_round_trips(self, tmp_path):
        base = ScenarioConfig()
        lines = []
        for section, obj in config_sections(base).items():
            lines.append(f"[{section}]")
            for f in fields(obj):
                value = getattr(obj, f.name)
                if isinstance(value, tuple):
                    lines.append(f"{f.name} = {' '.join(map(repr, value))}")
                elif not is_dataclass(value):
                    lines.append(f"{f.name} = {value!r}")
        path = tmp_path / "all.ini"
        path.write_text("\n".join(lines) + "\n")
        cfg = load_config(path)
        assert cfg == base
        for section, obj in config_sections(cfg).items():
            default = config_sections(base)[section]
            for f in fields(obj):
                assert type(getattr(obj, f.name)) \
                    is type(getattr(default, f.name)), f.name

    @pytest.mark.parametrize("section, key, raw, value", [
        ("video", "num_slots", "48", 48),
        ("shadowing", "sigma_db", "4", 4.0),
        ("scenario", "bs_positions_m", "0, 400 900", (0.0, 400.0, 900.0)),
    ])
    def test_value_parsed_as_field_type(self, tmp_path, section, key, raw,
                                        value):
        path = tmp_path / "one.ini"
        path.write_text(f"[{section}]\n{key} = {raw}\n")
        got = getattr(config_sections(load_config(path))[section], key)
        assert got == value
        assert type(got) is type(value)
        if isinstance(value, tuple):
            assert all(type(v) is float for v in got)


def config_sections(cfg):
    """INI section name -> the config object it sets."""
    return {"scenario": cfg, "video": cfg.video, "link": cfg.link,
            "shadowing": cfg.shadowing}


def read_csv(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


class TestSingleUser:
    def test_four_phases_without_shadowing(self, tmp_path):
        cfg = ScenarioConfig(shadowing=ShadowingConfig(sigma_db=0.0))
        run_single_user(cfg, tmp_path)
        rows = [r for r in read_csv(tmp_path / "trace.csv")
                if r["case"] == "anticipatory"]
        r_bits = np.array([float(r["r_bits"]) for r in rows])
        gain = np.array([float(r["gain_db"]) for r in rows])
        worst = int(np.argmin(gain))
        # early slots pre-load above V, the handover region drops below V
        # (down to zero), the tail settles at exactly V
        assert r_bits[0] > V
        drain = np.flatnonzero(r_bits < V - 1e-3)
        assert drain.size > 0
        assert drain[0] <= worst <= drain[-1]
        assert np.min(r_bits[drain]) == pytest.approx(0.0, abs=1e-3)
        assert r_bits[drain[-1] + 1:] == pytest.approx(
            np.full(96 - drain[-1] - 1, V), rel=1e-9)

    def test_zero_buffer_case_constant_rate(self, tmp_path):
        cfg = ScenarioConfig(shadowing=ShadowingConfig(sigma_db=0.0))
        run_single_user(cfg, tmp_path)
        rows = [r for r in read_csv(tmp_path / "trace.csv")
                if r["case"] == "zero_buffer"]
        r_bits = np.array([float(r["r_bits"]) for r in rows])
        w = np.array([float(r["w_prbs"]) for r in rows])
        gain = np.array([float(r["gain_db"]) for r in rows])
        assert r_bits == pytest.approx(np.full(96, V), rel=1e-9)
        assert int(np.argmax(w)) == int(np.argmin(gain))

    def test_summary_totals_ordered(self, tmp_path):
        cfg = ScenarioConfig()
        summary = run_single_user(cfg, tmp_path)
        assert summary["anticipatory_total_prb_slots"] \
            < summary["zero_buffer_total_prb_slots"]
        assert summary["anticipatory_outages"] == 0

    def test_byte_identical_reruns(self, tmp_path):
        cfg = ScenarioConfig(seed=5)
        run_single_user(cfg, tmp_path / "a")
        run_single_user(cfg, tmp_path / "b")
        assert (tmp_path / "a" / "trace.csv").read_bytes() \
            == (tmp_path / "b" / "trace.csv").read_bytes()


class TestBufferSweep:
    def test_monotone_and_z0_closed_form(self, tmp_path):
        cfg = ScenarioConfig(seed=2)
        result = run_buffer_sweep(cfg, [k * V for k in range(6)], tmp_path)
        totals = result["total_prb_slots"]
        assert np.all(np.diff(totals) <= 1e-9)
        trace = cfg.make_trace()
        assert totals[0] == pytest.approx(
            float(np.sum(V / trace.bits_per_prb)), rel=1e-9)

    def test_normalization_columns(self, tmp_path):
        cfg = ScenarioConfig(seed=2)
        run_buffer_sweep(cfg, [0.0, V], tmp_path)
        rows = read_csv(tmp_path / "sweep.csv")
        for row in rows:
            total = float(row["total_prb_slots"])
            assert float(row["frac_of_system_prbs"]) \
                == pytest.approx(total / (96 * 50), rel=1e-6)
            assert row["frac_of_available_prbs"] \
                == row["frac_of_system_prbs"]

    def test_empty_z_values_rejected(self, tmp_path):
        with pytest.raises(ValueError) as exc:
            run_buffer_sweep(ScenarioConfig(), [], tmp_path)
        assert type(exc.value) is ValueError

    @pytest.mark.parametrize(
        "z", [float("nan"), -V, -math.inf, True, np.bool_(True), "1", None],
        ids=repr)
    def test_bad_z_value_rejected_before_output(self, tmp_path, monkeypatch,
                                                z):
        # the entry check is a sweep cap's only check, since each cap's
        # spec is copied, not built: it refuses all VideoSpec refuses
        def unreachable(*args, **kwargs):
            raise AssertionError("trace built before the z values checked")

        monkeypatch.setattr(ScenarioConfig, "make_trace", unreachable)
        out = tmp_path / "out"
        with pytest.raises(ValueError,
                           match=re.escape("z_values_bits[1]")) as exc:
            run_buffer_sweep(ScenarioConfig(), [0.0, z], out)
        assert type(exc.value) is ValueError
        assert not out.exists()
        with pytest.raises(ValueError, match="max_carryover_bits"):
            replace(ScenarioConfig().video, max_carryover_bits=z)


    def test_infeasible_cap_costs_inf(self, tmp_path):
        # V = 1e7 exceeds the worst slot's 50-PRB capacity (9.2e6 bits),
        # so Z = 0 has no plan; one slot of buffer already has one
        v = 1e7
        cfg = ScenarioConfig(
            video=replace(default_video_spec(), bits_per_slot=v),
            shadowing=ShadowingConfig(sigma_db=0.0))
        totals = run_buffer_sweep(cfg, [0.0, v, 2 * v],
                                  tmp_path)["total_prb_slots"]
        assert totals[0] == np.inf
        assert np.all(np.isfinite(totals[1:]))
        rows = read_csv(tmp_path / "sweep.csv")
        assert [rows[0][k] for k in ("total_prb_slots", "frac_of_system_prbs",
                                     "frac_of_available_prbs")] \
            == ["inf"] * 3
        assert float(rows[1]["total_prb_slots"]) == pytest.approx(totals[1])


SWEEP_CAPS = [2 * V, 0.0, V, 250_000, np.float64(1.5 * V), -0.0, math.inf]


@pytest.mark.parametrize("run, caps", [
    (run_single_user, [5 * V, 0.0]),
    (lambda cfg, out: run_buffer_sweep(cfg, SWEEP_CAPS, out), SWEEP_CAPS),
], ids=["single-user", "buffer-sweep"])
def test_one_full_spectrum_plan_per_cap(tmp_path, monkeypatch, run, caps):
    # both drivers plan through this module's plan_anticipatory, which a
    # wrapper set after import sees: once per cap, in cap order, on all
    # 50 PRBs of every slot of one trace.  Each cap's spec is the one
    # replace() would build from the cap as given, without checking the
    # checked cap again.
    plan_anticipatory = prebuf.scenario.plan_anticipatory
    check_fields = prebuf.playout.check_fields
    seen, checks = [], []

    def recording(spec, trace, residual):
        seen.append((spec, trace, residual.tolist()))
        return plan_anticipatory(spec, trace, residual)

    def counted(*args, **kwargs):
        checks.append(args)
        return check_fields(*args, **kwargs)

    config = ScenarioConfig()
    monkeypatch.setattr(prebuf.scenario, "plan_anticipatory", recording)
    monkeypatch.setattr(prebuf.playout, "check_fields", counted)
    run(config, tmp_path)
    assert checks == []
    assert len(seen) == len(caps)
    for (spec, _, _), cap in zip(seen, caps):
        expect = replace(config.video, max_carryover_bits=cap)
        assert type(spec) is VideoSpec
        assert spec == expect and hash(spec) == hash(expect)
        assert [repr(getattr(spec, f.name)) for f in fields(spec)] \
            == [repr(getattr(expect, f.name)) for f in fields(expect)]
    assert all(trace is seen[0][1] for _, trace, _ in seen)
    assert all(residual == [50.0] * 96 for _, _, residual in seen)


class TestMultiUser:
    def test_csv_and_dominance(self, tmp_path):
        cfg = ScenarioConfig(seed=0)
        admission = AdmissionConfig(total_requests=5, available_prbs=15,
                                    seed=0)
        means = run_multiuser(cfg, admission, [3, 6], tmp_path, num_seeds=2)
        rows = read_csv(tmp_path / "service_curve.csv")
        assert {r["planner"] for r in rows} == {"anticipatory", "baseline"}
        by_key = {(r["kv"], r["planner"]): r["mean_served"] for r in means}
        for kv in (3, 6):
            assert by_key[(kv, "anticipatory")] >= by_key[(kv, "baseline")]


class TestCli:
    def test_single_user_runs(self, tmp_path, capsys):
        rc = main(["single-user", "--sigma-db", "0",
                   "--out", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "trace.csv").exists()
        assert "total_prb_slots" in capsys.readouterr().out

    def test_buffer_sweep_runs(self, tmp_path, capsys):
        rc = main(["buffer-sweep", "--z-max-multiple", "3",
                   "--out", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "sweep.csv").exists()

    def test_multi_user_runs(self, tmp_path, capsys):
        rc = main(["multi-user", "--kv", "2", "4", "--num-seeds", "1",
                   "--out", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "service_curve.csv").exists()

    def test_config_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.ini"
        bad.write_text("[video]\nbitz = 3\n")
        rc = main(["single-user", "--config", str(bad),
                   "--out", str(tmp_path)])
        assert rc == 1

    @pytest.mark.parametrize("argv", [
        ["multi-user", "--kv", "0"],
        ["multi-user", "--kv", "5", "0"],
        ["multi-user", "--num-seeds", "0"],
        ["multi-user", "--available-prbs", "-1"],
        ["multi-user", "--available-prbs", "inf"],
        ["multi-user", "--mean-interarrival", "nan"],
        ["buffer-sweep", "--z-max-multiple", "-1"],
        ["single-user", "--sigma-db", "nan"],
        ["single-user", "--seed", "-1"],
        ["multi-user", "--kv", "x"],
        ["buffer-sweep", "--z-max-multiple", "1.5"],
        ["bogus"],
    ])
    def test_bad_flag_exit_code(self, tmp_path, capsys, argv):
        out = tmp_path / "out"
        rc = main(argv + ["--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("config error: ")
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("argv, ini, err", [
        (["single-user", "--seed", "-1"], None,
         "seed must be an integer >= 0, got -1"),
        (["single-user", "--sigma-db", "nan"], None,
         "sigma_db must be a finite real number >= 0 up to 1.34078e+154, "
         "got nan"),
        (["single-user"], "[scenario]\nuser_speed_mps = 0\n",
         "[scenario]: user_speed_mps must be a finite real number > 0, "
         "got 0.0"),
        (["single-user"], "[shadowing]\nsigma_db = nan\n",
         "[shadowing]: sigma_db must be a finite real number >= 0 up to "
         "1.34078e+154, got nan"),
        (["single-user"], "[video]\nslot_duration_s = 1e308\n",
         TRAJECTORY_OVERFLOW),
        (["single-user"], "[scenario]\nuser_speed_mps = 1e308\n",
         "[scenario]: " + TRAJECTORY_OVERFLOW),
        (["multi-user", "--mean-interarrival", "1e300", "--kv", "2"], None,
         "arrivals span 2.43e+301 slots, past the 1048576-slot ledger "
         "limit; lower mean_interarrival_s or total_requests"),
        (["buffer-sweep", "--z-max-multiple", "-1"], None,
         "--z-max-multiple must be an integer in [0, 1048576], got -1"),
    ], ids=["seed", "sigma-db", "ini-speed-0", "ini-sigma-nan",
            "ini-slot-overflow", "ini-speed-overflow", "horizon",
            "z-max-multiple"])
    def test_config_error_output_pinned(self, tmp_path, capsys, argv, ini,
                                        err):
        if ini is not None:
            (tmp_path / "c.ini").write_text(ini)
            argv = argv + ["--config", str(tmp_path / "c.ini")]
        rc = main(argv + ["--out", str(tmp_path / "out")])
        captured = capsys.readouterr()
        assert (rc, captured.out, captured.err) \
            == (1, "", f"config error: {err}\n")

    def test_infeasible_scenario_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "heavy.ini"
        cfg.write_text("[video]\nbits_per_slot = 1e9\n")
        rc = main(["single-user", "--config", str(cfg),
                   "--out", str(tmp_path)])
        captured = capsys.readouterr()
        assert rc == 2
        assert "scenario infeasible" in captured.err
        assert "feasible: False" in captured.out
        assert (tmp_path / "trace.csv").exists()

    def test_infeasible_totals_printed_as_inf(self, tmp_path, capsys):
        cfg = tmp_path / "heavy.ini"
        cfg.write_text("[video]\nbits_per_slot = 1e9\n")
        rc = main(["single-user", "--config", str(cfg),
                   "--out", str(tmp_path)])
        lines = capsys.readouterr().out.splitlines()
        assert rc == 2
        assert "anticipatory_total_prb_slots: inf" in lines
        assert "zero_buffer_total_prb_slots: inf" in lines

    @pytest.mark.parametrize("bits_per_slot, rc, printed", [
        ("1e7", 0, "total_prb_slots: inf 3471.61 3437.23\n"),
        ("1e9", 2, "total_prb_slots: inf inf inf\n"),
    ], ids=["partly-feasible", "none-feasible"])
    def test_buffer_sweep_infeasible_exit_code(self, tmp_path, capsys,
                                               bits_per_slot, rc, printed):
        cfg = tmp_path / "heavy.ini"
        cfg.write_text(f"[video]\nbits_per_slot = {bits_per_slot}\n")
        out = tmp_path / "out"
        assert main(["buffer-sweep", "--config", str(cfg), "--sigma-db", "0",
                     "--z-max-multiple", "2", "--out", str(out)]) == rc
        captured = capsys.readouterr()
        assert captured.out == printed
        assert ("scenario infeasible" in captured.err) == (rc == 2)
        rows = read_csv(out / "sweep.csv")
        assert rows[0]["total_prb_slots"] == "inf"
        assert len(rows) == 3

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["multi-user", "--help"])
        assert exc.value.code == 0
        assert "--kv" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [
        ["single-user"],
        ["buffer-sweep", "--z-max-multiple", "1"],
        ["multi-user", "--kv", "2", "--num-seeds", "1"],
    ])
    def test_out_names_a_file_exit_code(self, tmp_path, capsys, argv):
        out = tmp_path / "afile"
        out.write_text("kept\n")
        rc = main(argv + ["--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("config error: ")
        assert str(out) in err
        assert "Traceback" not in err
        assert out.read_text() == "kept\n"

    def test_huge_mean_interarrival_exit_code(self, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main(["multi-user", "--mean-interarrival", "1e300", "--kv", "2",
                   "--num-seeds", "1", "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("config error: ")
        assert "ledger limit" in err
        assert not out.exists()

    def test_huge_available_prbs_exit_code(self, tmp_path, capsys):
        # past MAX_COUNT PRBs, where the supply bits_per_prb * 1e308
        # would overflow; rejected, not warned
        out = tmp_path / "out"
        rc = main(["multi-user", "--available-prbs", "1e308", "--kv", "2",
                   "--num-seeds", "1", "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("config error: ")
        assert "available_prbs" in err
        assert "Warning" not in err
        assert not out.exists()

    @pytest.mark.parametrize("kv", [["0"], ["-3"]])
    def test_bad_kv_named_in_error(self, tmp_path, capsys, kv):
        out = tmp_path / "out"
        rc = main(["multi-user", "--kv", *kv, "--num-seeds", "1",
                   "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("config error: kv[0] must be")
        assert not out.exists()

    @pytest.mark.parametrize("text, named", [
        ("[scenario]\nseed = 5%\n", "5%"),
        ("[video]\nbits_per_slot = %(x)s\n", "%(x)s"),
        ("[DEFAULT]\nseed = 3\n", "DEFAULT"),
        ("[DEFAULT]\nseed = 3\n[video]\nnum_slots = 48\n", "DEFAULT"),
        ("[scenario]\nseed = 1.5\n", "seed"),
        ("[video]\nnum_slots = 1.5\n", "num_slots"),
        ("[link]\nnum_system_prbs = 1.5\n", "num_system_prbs"),
    ], ids=["percent", "interpolation", "default", "default-and-video",
            "seed-1.5", "num_slots-1.5", "num_system_prbs-1.5"])
    def test_bad_ini_exit_code(self, tmp_path, capsys, text, named):
        bad = tmp_path / "bad.ini"
        bad.write_text(text)
        out = tmp_path / "out"
        rc = main(["single-user", "--config", str(bad), "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("config error: ")
        assert named in err
        assert not out.exists()

    @pytest.mark.parametrize("data", [
        b"seed = 3\n",
        b"[video]\nnum_slots = 48\n[video]\n",
        b"[video]\nnum_slots = 48\nnum_slots = 24\n",
        "[video]\nnum_slots = 48\n".encode("utf-16"),
    ], ids=["no-section-header", "repeated-section", "repeated-key",
            "not-utf-8"])
    def test_ini_parse_error_names_the_file(self, tmp_path, capsys, data):
        bad = tmp_path / "bad.ini"
        bad.write_bytes(data)
        out = tmp_path / "out"
        rc = main(["single-user", "--config", str(bad), "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("config error: ")
        assert str(bad) in err
        assert not out.exists()

    def test_config_with_byte_order_mark_loads(self, tmp_path, capsys):
        bom = tmp_path / "bom.ini"
        bom.write_bytes(b"\xef\xbb\xbf[video]\nbits_per_slot = 1e7\n")
        assert load_config(bom).video.bits_per_slot == 1e7
        rc = main(["buffer-sweep", "--config", str(bom), "--sigma-db", "0",
                   "--z-max-multiple", "2", "--out", str(tmp_path / "out")])
        assert rc == 0
        assert capsys.readouterr().out \
            == "total_prb_slots: inf 3471.61 3437.23\n"

    @pytest.mark.parametrize("command", ["single-user", "buffer-sweep",
                                         "multi-user"])
    def test_empty_config_path_refused(self, tmp_path, capsys, command):
        # an unset shell variable must not run the default scenario
        out = tmp_path / "out"
        rc = main([command, "--config", "", "--out", str(out)])
        captured = capsys.readouterr()
        assert (rc, captured.out, captured.err) \
            == (1, "", "config error: config path is empty\n")
        assert not out.exists()

    def test_multi_user_defaults_are_admission_config_defaults(self):
        args = prebuf.cli.build_parser().parse_args(["multi-user"])
        defaults = {f.name: f.default for f in fields(AdmissionConfig)}
        assert args.available_prbs == defaults["available_prbs"]
        assert args.mean_interarrival == defaults["mean_interarrival_s"]

    @pytest.mark.parametrize("text, flags, named", [
        ("[link]\ntotal_power_dbm = 4000\n", [], "total_power_dbm"),
        ("[link]\ntotal_power_dbm = -4000\n", [], "total_power_dbm"),
        ("[link]\nsnr_gap_db = 4000\n", [], "snr_gap_db"),
        ("[link]\nnoise_psd_dbm_hz = -4000\n"
         "interference_psd_dbm_hz = -4000\n", [], "noise_psd_dbm_hz"),
        ("", ["--sigma-db", "1e4"], "gain_db"),
        # every capacity rounds to 0: the message names the input, not
        # the derived bits_per_prb
        ("[link]\nmin_bs_distance_m = 1e308\n", [], "min_bs_distance_m"),
        ("[scenario]\nbs_positions_m = 1e308\n", [], "bs_positions_m"),
        ("[link]\nprb_bandwidth_hz = 1e308\n", [], "prb_bandwidth_hz"),
    ], ids=["power-overflow", "power-underflow", "snr-gap-overflow",
            "zero-noise", "sigma-1e4", "capacity-0-min-distance",
            "capacity-0-bs-position", "capacity-0-bandwidth"])
    def test_extreme_link_budget_exit_code(self, tmp_path, capsys, text,
                                           flags, named):
        ini = tmp_path / "link.ini"
        ini.write_text(text)
        out = tmp_path / "out"
        rc = main(["single-user", "--config", str(ini), *flags,
                   "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("config error: ")
        assert named in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("prbs", [MAX_COUNT + 1, 10 ** 400],
                             ids=["max-count-plus-1", "1e400"])
    @pytest.mark.parametrize("command", [
        ["single-user"],
        ["buffer-sweep", "--z-max-multiple", "1"],
        ["multi-user", "--kv", "2", "--num-seeds", "1"],
    ])
    def test_num_system_prbs_bounded_exit_code(self, tmp_path, capsys, prbs,
                                               command):
        ini = tmp_path / "prbs.ini"
        ini.write_text(f"[link]\nnum_system_prbs = {prbs}\n")
        out = tmp_path / "out"
        rc = main(command + ["--config", str(ini), "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("config error: [link]: num_system_prbs must "
                              f"be an integer in [1, {MAX_COUNT}]")
        assert not out.exists()

    @pytest.mark.parametrize("text", [
        "[video]\nslot_duration_s = 1e308\n",
        "[scenario]\nuser_speed_mps = 1e308\n",
        "[scenario]\nuser_start_m = 1e308\nuser_speed_mps = 1e307\n",
    ], ids=["slot-duration", "speed", "start-and-speed"])
    @pytest.mark.parametrize("command", [
        ["single-user"],
        ["buffer-sweep", "--z-max-multiple", "1"],
        ["multi-user", "--kv", "2", "--num-seeds", "1"],
    ])
    def test_overflowing_trajectory_exit_code(self, tmp_path, capsys, text,
                                              command):
        ini = tmp_path / "far.ini"
        ini.write_text(text)
        out = tmp_path / "out"
        rc = main(command + ["--config", str(ini), "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("config error: ")
        for name in ("user_start_m", "user_speed_mps", "slot_duration_s"):
            assert name in err
        assert "Warning" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command", [
        ["single-user"],
        ["buffer-sweep", "--z-max-multiple", "1"],
        ["multi-user", "--kv", "2", "--num-seeds", "1"],
    ])
    def test_sigma_with_overflowing_square_exit_code(self, tmp_path, capsys,
                                                     command):
        # the field's variance sigma_db**2 would overflow
        out = tmp_path / "out"
        rc = main(command + ["--sigma-db", "1e200", "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("config error: sigma_db must be")
        assert not out.exists()

    @pytest.mark.parametrize("argv, named", [
        (["buffer-sweep", "--z-max-multiple", str(MAX_COUNT + 1)],
         "--z-max-multiple"),
        (["buffer-sweep", "--z-max-multiple", "-1"], "--z-max-multiple"),
        (["multi-user", "--kv", str(MAX_COUNT + 1), "--num-seeds", "1"],
         "kv[0]"),
        (["multi-user", "--kv", "99999999999999999999", "--num-seeds", "1"],
         "kv[0]"),
        (["multi-user", "--kv", "2", "--num-seeds", str(MAX_COUNT + 1)],
         "num_seeds"),
    ], ids=["z-max-multiple", "z-max-multiple-negative", "kv", "kv-huge",
            "num-seeds"])
    def test_count_out_of_bounds_named(self, tmp_path, capsys, monkeypatch,
                                       argv, named):
        # a count is checked before it sizes anything: no driver is reached
        def unreachable(*args, **kwargs):
            pytest.fail("a driver ran with a count out of bounds")

        monkeypatch.setattr(prebuf.cli, "run_buffer_sweep", unreachable)
        monkeypatch.setattr(prebuf.admission, "run_admission", unreachable)
        out = tmp_path / "out"
        rc = main(argv + ["--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith(f"config error: {named} must be an integer in [")
        assert not out.exists()

    def test_missing_config_file_exit_code(self, tmp_path):
        rc = main(["single-user", "--config", str(tmp_path / "none.ini"),
                   "--out", str(tmp_path)])
        assert rc == 1

    def test_seed_override_changes_output(self, tmp_path):
        main(["single-user", "--seed", "1", "--out", str(tmp_path / "a")])
        main(["single-user", "--seed", "2", "--out", str(tmp_path / "b")])
        assert (tmp_path / "a" / "trace.csv").read_bytes() \
            != (tmp_path / "b" / "trace.csv").read_bytes()


EXTREME_INTS = [-1, 0, 1, 2, 2 ** 63, 10 ** 20]
EXTREME_FLOATS = [0.0, 1e308, -1e308, 1e-300, math.inf, -math.inf, math.nan]
COMMON_FLAGS = {"--seed": EXTREME_INTS, "--sigma-db": EXTREME_FLOATS}
SUBCOMMAND_FLAGS = {
    "single-user": {},
    "buffer-sweep": {"--z-max-multiple": EXTREME_INTS},
    "multi-user": {"--kv": EXTREME_INTS, "--num-seeds": EXTREME_INTS,
                   "--available-prbs": EXTREME_FLOATS,
                   "--mean-interarrival": EXTREME_FLOATS},
}
# small runs unless the flag itself is drawn
MULTI_USER_DEFAULTS = {"--kv": "2", "--num-seeds": "1"}


@st.composite
def extreme_argvs(draw):
    """A subcommand with some of its flags set to extreme values."""
    command = draw(st.sampled_from(sorted(SUBCOMMAND_FLAGS)))
    argv = [command]
    for flag, values in {**COMMON_FLAGS, **SUBCOMMAND_FLAGS[command]}.items():
        if draw(st.booleans()):
            argv.append(f"{flag}={draw(st.sampled_from(values))!r}")
        elif command == "multi-user" and flag in MULTI_USER_DEFAULTS:
            argv.append(f"{flag}={MULTI_USER_DEFAULTS[flag]}")
    return argv


# INI keys the contract property draws one at a time, by section
EXTREME_INI_KEYS = {
    "scenario": ("user_start_m", "user_speed_mps", "bs_positions_m"),
    "video": ("slot_duration_s", "bits_per_slot"),
    "link": ("prb_bandwidth_hz", "min_bs_distance_m"),
    "shadowing": ("decorrelation_m",),
}
EXTREME_INI_VALUES = [*EXTREME_FLOATS, 10 ** 20]


@st.composite
def extreme_ini_runs(draw):
    """A small run of a subcommand, and an INI setting one key to an
    extreme value."""
    command = draw(st.sampled_from(sorted(SUBCOMMAND_FLAGS)))
    argv = [command]
    if command == "multi-user":
        argv += [f"{flag}={value}"
                 for flag, value in MULTI_USER_DEFAULTS.items()]
    section = draw(st.sampled_from(sorted(EXTREME_INI_KEYS)))
    key = draw(st.sampled_from(EXTREME_INI_KEYS[section]))
    value = draw(st.sampled_from(EXTREME_INI_VALUES))
    return argv, f"[{section}]\n{key} = {value!r}\n"


class TestCliContract:
    """Whatever the flags and INI values, the CLI exits 0, 1 or 2 as
    documented."""

    runs = itertools.count()            # a fresh --out directory per example

    def check_contract(self, argv, tmp_path, capsys):
        out = tmp_path / f"out{next(self.runs)}"
        rc = main(argv + ["--out", str(out)])
        captured = capsys.readouterr()
        assert rc in (0, 1, 2), argv
        assert "Traceback" not in captured.err, argv
        assert "Warning" not in captured.err, argv
        if rc == 1:
            assert captured.err.startswith("config error: "), argv
            assert not out.exists(), argv
        for line in captured.out.splitlines():
            key, _, values = line.partition(": ")
            if key.endswith("total_prb_slots"):     # an infeasible plan is inf
                assert 0.0 not in map(float, values.split()), (argv, line)

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(argv=extreme_argvs())
    def test_extreme_flags(self, tmp_path, capsys, argv):
        self.check_contract(argv, tmp_path, capsys)

    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(run=extreme_ini_runs())
    def test_extreme_ini_values(self, tmp_path, capsys, run):
        argv, text = run
        ini = tmp_path / f"extreme{next(self.runs)}.ini"
        ini.write_text(text)
        self.check_contract(argv + ["--config", str(ini)], tmp_path, capsys)
