import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from tvkit import cli, fileio, grid, restore, solvers, synth
from tvkit.cli import main, parse_kernel
from tvkit.flow import FlowParams
from tvkit.fileio import (
    FileFormatError,
    FloFormatError,
    PgmParseError,
    read_flo,
    read_kernel_text,
    read_pgm,
    read_report,
    write_flo,
    write_kernel_text,
    write_pgm,
    write_report,
)
from tvkit.grid import Kernel, VectorField
from tvkit.restore import BlindParams, RestoreParams
from tvkit.solvers import SolveReport, SolverConfig, tv_restore_fixed_point


class TestPgm:
    def test_round_trip_quantization_bound(self, tmp_path):
        rng = np.random.default_rng(1)
        f = rng.uniform(0.0, 1.0, (9, 13))
        p = tmp_path / "img.pgm"
        write_pgm(p, f)
        back = read_pgm(p)
        assert back.shape == f.shape
        assert np.abs(back - f).max() <= 0.5 / 255 + 1e-12

    def test_sixteen_bit_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        f = rng.uniform(0.0, 1.0, (6, 6))
        p = tmp_path / "img16.pgm"
        write_pgm(p, f, maxval=65535)
        back = read_pgm(p)
        assert np.abs(back - f).max() <= 0.5 / 65535 + 1e-12

    def test_ascii_single_pixel(self, tmp_path):
        p = tmp_path / "one.pgm"
        p.write_bytes(b"P2\n1 1\n255\n128\n")
        img = read_pgm(p)
        assert img.shape == (1, 1)
        assert img[0, 0] == pytest.approx(128 / 255, rel=1e-15)

    def test_ascii_with_comments(self, tmp_path):
        p = tmp_path / "c.pgm"
        p.write_bytes(b"P2 # magic\n# a comment line\n2 1\n255\n7 250\n")
        img = read_pgm(p)
        np.testing.assert_allclose(img, [[7 / 255, 250 / 255]])

    def test_ascii_comments_between_samples(self, tmp_path):
        p = tmp_path / "cs.pgm"
        p.write_bytes(b"P2\n2 1\n255\n7 # c\n250\n# end\n")
        np.testing.assert_allclose(read_pgm(p), [[7 / 255, 250 / 255]])

    def test_ascii_trailing_data_rejected_with_offset(self, tmp_path):
        p = tmp_path / "trail.pgm"
        p.write_bytes(b"P2\n1 1\n255\n5\nx")
        with pytest.raises(PgmParseError) as exc_info:
            read_pgm(p)
        assert str(exc_info.value) == "trailing data after P2 samples (byte offset 13)"
        assert exc_info.value.offset == 13

    def test_ascii_header_size_bounded_by_file(self, tmp_path):
        # a 4000x4000 header with 3 samples must fail before allocating
        # the 128 MB sample buffer the header claims
        p = tmp_path / "huge.pgm"
        p.write_bytes(b"P2 4000 4000 255\n1 2 3\n")
        tracemalloc.start()
        try:
            with pytest.raises(PgmParseError, match="truncated P2 payload"):
                read_pgm(p)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_ascii_samples_end_early(self, tmp_path):
        # the header is complete, so a missing sample is a payload error
        p = tmp_path / "early.pgm"
        p.write_bytes(b"P2\n2 1\n255\n1          \n")
        with pytest.raises(PgmParseError) as exc_info:
            read_pgm(p)
        assert str(exc_info.value) == (
            "truncated P2 payload: read 1 of 2 samples (byte offset 23)"
        )
        assert exc_info.value.offset == 23

    def test_binary_payload_too_short(self, tmp_path):
        p = tmp_path / "short.pgm"
        p.write_bytes(b"P5\n2 2\n255\n" + bytes(3))
        with pytest.raises(PgmParseError):
            read_pgm(p)

    def test_binary_payload_too_long(self, tmp_path):
        p = tmp_path / "long.pgm"
        p.write_bytes(b"P5\n2 2\n255\n" + bytes(5))
        with pytest.raises(PgmParseError):
            read_pgm(p)

    def test_color_refused_by_name(self, tmp_path):
        p = tmp_path / "color.ppm"
        p.write_bytes(b"P6\n1 1\n255\n" + bytes(3))
        with pytest.raises(PgmParseError) as exc_info:
            read_pgm(p)
        assert "P6" in str(exc_info.value)

    def test_errors_carry_byte_offset(self, tmp_path):
        p = tmp_path / "bad.pgm"
        p.write_bytes(b"P2\n2 two\n255\n1 2 3 4\n")
        with pytest.raises(PgmParseError) as exc_info:
            read_pgm(p)
        assert "byte offset" in str(exc_info.value)

    @pytest.mark.parametrize("data, message, offset", [
        (b"P", "file too short for a PGM magic number", 0),
        (b"XY 1 1 255\n" + bytes(1), "bad magic b'XY', expected P2 or P5", 0),
        (b"P5 4 4", "unexpected end of file in header", 6),
        (b"P5 0 4 255\n", "width must be positive, got 0", 3),
        (b"P2 1 1 70000\n5\n", "maxval 70000 exceeds 65535", 7),
        (b"P5 1 1 255", "expected single whitespace after maxval", 10),
    ], ids=["too-short", "bad-magic", "header-eof", "zero-width", "maxval-range",
            "no-whitespace-after-maxval"])
    def test_header_errors_name_offset(self, tmp_path, data, message, offset):
        p = tmp_path / "bad.pgm"
        p.write_bytes(data)
        with pytest.raises(PgmParseError) as exc_info:
            read_pgm(p)
        assert str(exc_info.value) == f"{message} (byte offset {offset})"
        assert exc_info.value.offset == offset

    def test_sample_above_maxval_rejected(self, tmp_path):
        p = tmp_path / "over.pgm"
        p.write_bytes(b"P2\n2 1\n100\n50 101\n")
        with pytest.raises(PgmParseError):
            read_pgm(p)

    def test_binary_sample_above_maxval_names_offset(self, tmp_path):
        p = tmp_path / "over5.pgm"
        p.write_bytes(b"P5\n2 1\n10\n\x05\x0b")
        with pytest.raises(PgmParseError) as exc_info:
            read_pgm(p)
        assert str(exc_info.value) == "sample value 11 exceeds maxval 10 (byte offset 11)"

    def test_ascii_bad_token_names_offset(self, tmp_path):
        p = tmp_path / "token.pgm"
        p.write_bytes(b"P2\n2 1\n255\n1 x\n")
        with pytest.raises(PgmParseError) as exc_info:
            read_pgm(p)
        assert str(exc_info.value) == "invalid sample token b'x' (byte offset 13)"

    def test_write_clamps_out_of_range(self, tmp_path):
        p = tmp_path / "clamp.pgm"
        write_pgm(p, np.array([[-0.5, 1.5]]))
        np.testing.assert_allclose(read_pgm(p), [[0.0, 1.0]])

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_write_rejects_non_finite_samples(self, tmp_path, value):
        p = tmp_path / "bad.pgm"
        with pytest.raises(ValueError, match="non-finite"):
            write_pgm(p, np.array([[0.5, value]]))
        assert not p.exists()


class TestFlo:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(3)
        w = VectorField(
            rng.standard_normal((5, 7)).astype(np.float32).astype(np.float64),
            rng.standard_normal((5, 7)).astype(np.float32).astype(np.float64),
        )
        p = tmp_path / "a.flo"
        write_flo(p, w)
        first = p.read_bytes()
        back = read_flo(p)
        np.testing.assert_array_equal(back.u, w.u)
        np.testing.assert_array_equal(back.v, w.v)
        write_flo(tmp_path / "b.flo", back)
        assert (tmp_path / "b.flo").read_bytes() == first

    def test_write_rejects_mismatched_components(self, tmp_path):
        p = tmp_path / "bad.flo"
        with pytest.raises(ValueError, match="matching 2-d fields"):
            write_flo(p, VectorField(np.zeros((2, 2)), np.zeros((2, 3))))
        assert not p.exists()

    @pytest.mark.parametrize("u, message", [
        (np.zeros((0, 3)), "no pixels"),
        (np.array([[0.0, np.nan]]), "non-finite"),
        (np.array([[0.0, -np.inf]]), "non-finite"),
        (np.array([[0.0, 1e39]]), "float32 range"),
        (np.array([[0.0, -3.5e38]]), "float32 range"),
    ], ids=["empty", "nan", "inf", "above-float32", "below-float32"])
    def test_write_rejects_unwritable_flow(self, tmp_path, u, message):
        # checked before the file is opened, with no cast warning
        p = tmp_path / "bad.flo"
        for w in (VectorField(u, np.zeros_like(u)), VectorField(np.zeros_like(u), u)):
            with pytest.raises(ValueError, match=message):
                write_flo(p, w)
            assert not p.exists()

    def test_write_keeps_float32_maximum(self, tmp_path):
        p = tmp_path / "max.flo"
        big = float(np.finfo(np.float32).max)
        write_flo(p, VectorField(np.array([[big, -big]]), np.zeros((1, 2))))
        np.testing.assert_array_equal(read_flo(p).u, [[big, -big]])

    def test_layout_arithmetic(self, tmp_path):
        p = tmp_path / "z.flo"
        z = np.zeros((2, 2))
        write_flo(p, VectorField(z, z))
        data = p.read_bytes()
        assert len(data) == 4 + 4 + 4 + 32
        assert data[:4] == b"PIEH"

    def test_wrong_magic_rejected(self, tmp_path):
        p = tmp_path / "bad.flo"
        p.write_bytes(b"XIEH" + bytes(40))
        with pytest.raises(FloFormatError):
            read_flo(p)

    def test_size_mismatch_rejected(self, tmp_path):
        p = tmp_path / "trunc.flo"
        p.write_bytes(b"PIEH" + np.array([2, 2], "<i4").tobytes() + bytes(31))
        with pytest.raises(FloFormatError):
            read_flo(p)

    @pytest.mark.parametrize("data, offset", [
        (b"PIEH\x02\x00", 6),
        (b"XIEH" + np.array([2, 2], "<i4").tobytes() + bytes(32), 0),
        (b"PIEH" + np.array([0, 2], "<i4").tobytes() + bytes(32), 4),
        (b"PIEH" + np.array([2, 2], "<i4").tobytes() + bytes(31), 43),
        (b"PIEH" + np.array([2, 3], "<i4").tobytes() + bytes(49), 12 + 8 * 2 * 3),
    ], ids=["too-short", "bad-magic", "bad-dimensions", "truncated", "trailing"])
    def test_errors_carry_byte_offset(self, tmp_path, data, offset):
        p = tmp_path / "bad.flo"
        p.write_bytes(data)
        with pytest.raises(FloFormatError) as exc_info:
            read_flo(p)
        assert exc_info.value.offset == offset
        assert str(exc_info.value).endswith(f"(byte offset {offset})")


class TestReportCsv:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(5)
        g = rng.uniform(0.0, 1.0, (12, 12))
        _, report = tv_restore_fixed_point(g, Kernel.delta(), RestoreParams(lam=0.08))
        p = tmp_path / "report.csv"
        write_report(p, report)
        text = p.read_text()
        assert text.splitlines()[0] == "iteration,objective,step_norm,cg_iters"
        assert "\r" not in text
        back = read_report(p)
        assert back.objective_history == report.objective_history
        assert back.step_norm_history == report.step_norm_history
        assert back.cg_iters_history == report.cg_iters_history
        assert back.outer_iterations == report.outer_iterations

    def test_forcing_reads_back_unknown(self, tmp_path):
        # the file does not store the forcing term: reading it back must
        # not claim 0, which would mean every CG solve ran to tol_cg
        g = np.random.default_rng(5).uniform(0.0, 1.0, (12, 12))
        _, report = tv_restore_fixed_point(g, Kernel.delta(), RestoreParams(lam=0.08))
        assert report.forcing == SolverConfig().forcing > 0
        p = tmp_path / "report.csv"
        write_report(p, report)
        assert read_report(p).forcing is None
        assert SolveReport().forcing is None

    def test_numpy_scalars_round_trip(self, tmp_path):
        # a report built outside the library's solvers may hold numpy
        # scalars; each is written as its column's plain type
        report = SolveReport(objective_history=[np.float64(1.5), np.float32(0.1)],
                             step_norm_history=[np.float32(0.25), np.float64(1e-300)],
                             cg_iters_history=[np.int64(3), np.int64(0)])
        p = tmp_path / "report.csv"
        write_report(p, report)
        assert p.read_text().splitlines()[1:] == ["1,1.5,0.25,3",
                                                  f"2,{float(np.float32(0.1))!r},1e-300,0"]
        back = read_report(p)
        assert back.objective_history == [1.5, float(np.float32(0.1))]
        assert back.step_norm_history == [0.25, 1e-300]
        assert back.cg_iters_history == [3, 0]
        assert all(type(c) is int for c in back.cg_iters_history)

    def test_non_integral_cg_count_rejected(self, tmp_path):
        report = SolveReport(objective_history=[1.0], step_norm_history=[0.5],
                             cg_iters_history=[2.7])
        p = tmp_path / "bad.csv"
        with pytest.raises(ValueError, match="2.7 is not an integer"):
            write_report(p, report)
        assert not p.exists()

    def test_inconsistent_histories_rejected(self, tmp_path):
        report = SolveReport(objective_history=[1.0], cg_iters_history=[3])
        p = tmp_path / "bad.csv"
        with pytest.raises(ValueError, match="inconsistent lengths"):
            write_report(p, report)
        assert not p.exists()

    def test_non_contiguous_iterations_rejected(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("iteration,objective,step_norm,cg_iters\n1,0.5,0.1,3\n3,0.4,0.05,2\n")
        with pytest.raises(ValueError):
            read_report(p)

    HEADER = "iteration,objective,step_norm,cg_iters\n"
    FIRST = "1,0.5,0.1,3\n"

    # (second data row, message), each fault on line 3 of the file
    @pytest.mark.parametrize("row,message", [
        ("2,x,0.05,2", "line 3, column 'objective': invalid float 'x'"),
        ("2,0.4,0.05,3.5", "line 3, column 'cg_iters': invalid int '3.5'"),
        ("2.0,0.4,0.05,2", "line 3, column 'iteration': invalid int '2.0'"),
        ("2,0.4,0.05", "line 3: 3 cells, expected 4"),
        ("", "line 3: 0 cells, expected 4"),
        ("3,0.4,0.05,2", "line 3: iterations must increase by 1: got 3 after 1"),
    ], ids=["objective", "cg-iters", "iteration", "ragged", "blank", "gap"])
    def test_bad_row_names_line_column_and_offset(self, tmp_path, row, message):
        p = tmp_path / "bad.csv"
        p.write_text(self.HEADER + self.FIRST + row + "\n")
        with pytest.raises(fileio.FileFormatError) as exc_info:
            read_report(p)
        offset = len(self.HEADER) + len(self.FIRST)
        assert exc_info.value.offset == offset
        assert str(exc_info.value) == f"{message} (byte offset {offset})"

    @pytest.mark.parametrize("text", ["", "iteration,objective,step_norm\n1,0.5,0.1\n",
                                      "1,0.5,0.1,3\n"], ids=["empty", "short", "missing"])
    def test_bad_header_names_line_one(self, tmp_path, text):
        p = tmp_path / "bad.csv"
        p.write_text(text)
        with pytest.raises(fileio.FileFormatError, match=r"^line 1: bad report header") as exc_info:
            read_report(p)
        assert exc_info.value.offset == 0


class TestKernelSpecs:
    def test_named_kernels(self):
        assert parse_kernel("delta").weights[0, 0] == 1.0
        np.testing.assert_allclose(parse_kernel("box3").weights, np.full((3, 3), 1 / 9))
        k = parse_kernel("motion-h:3")
        assert k.weights[1].sum() == pytest.approx(1.0)

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            parse_kernel("sharpen")

    @pytest.mark.parametrize("spec", ["box3:7", "binomial3:5", "delta:3:9",
                                      "gaussian:5:1.0:2", "motion-h:3:1"])
    def test_surplus_fields_rejected(self, spec):
        with pytest.raises(ValueError, match="bad kernel spec"):
            parse_kernel(spec)

    def test_text_round_trip(self, tmp_path):
        p = tmp_path / "k.txt"
        write_kernel_text(p, Kernel.gaussian(3, 0.8))
        k = read_kernel_text(p)
        np.testing.assert_array_equal(k.weights, Kernel.gaussian(3, 0.8).weights)
        k2 = parse_kernel(f"@{p}")
        np.testing.assert_array_equal(k2.weights, k.weights)

    def test_text_inline_comment(self, tmp_path):
        p = tmp_path / "k.txt"
        p.write_bytes(b"# cross\n0 1 0  # top\n1 1 1\n\n0 1 0\t# bottom\n")
        np.testing.assert_array_equal(
            read_kernel_text(p).weights, [[0, 1, 0], [1, 1, 1], [0, 1, 0]]
        )

    @pytest.mark.parametrize("data, offset, match", [
        (b"1 2 3\n4 x 6\n7 8 9\n", 8, "invalid kernel weight b'x'"),
        (b"1 2 3\n4 5 nan\n7 8 9\n", 10, "invalid kernel weight b'nan'"),
        (b"1 2 3\n4 5\n7 8 9\n", 6, "ragged kernel row"),
        (b"# no weights\n\n", 14, "no kernel weights"),
        (b"1 2\n3 4\n", 0, "must be odd"),
    ], ids=["bad-token", "non-finite", "ragged-row", "empty", "even"])
    def test_text_errors_carry_byte_offset(self, tmp_path, data, offset, match):
        p = tmp_path / "bad.txt"
        p.write_bytes(data)
        with pytest.raises(FileFormatError, match=match) as exc_info:
            read_kernel_text(p)
        assert exc_info.value.offset == offset
        assert str(exc_info.value).endswith(f"(byte offset {offset})")


class TestSynthFixtures:
    def test_step32_definition(self):
        clean, noisy = synth.make_step32()
        assert clean.shape == (32, 32)
        assert (clean[:, :16] == 0.25).all()
        assert (clean[:, 16:] == 0.75).all()
        assert noisy.shape == (32, 32)
        assert not np.array_equal(clean, noisy)

    @pytest.mark.parametrize("make", [synth.make_step32, synth.make_piecewise64])
    def test_noise_level_must_be_finite_and_nonnegative(self, make):
        for sigma in (np.nan, np.inf, -0.1):
            with pytest.raises(ValueError, match="sigma"):
                make(sigma=sigma)
        clean, noisy = make(sigma=0.0)
        np.testing.assert_array_equal(noisy, clean)

    def test_determinism_and_seed_sensitivity(self):
        a = synth.make_step32(seed=4)[1]
        b = synth.make_step32(seed=4)[1]
        c = synth.make_step32(seed=5)[1]
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_ramp_shift_consistency(self):
        # frame 2 is frame 1 moved right by exactly the true flow u = 1
        pair, gt = synth.make_ramp_shift()
        assert (gt.u == 1.0).all() and not gt.v.any()
        np.testing.assert_array_equal(pair.f2[:, 1:], pair.f1[:, :-1])

    def test_split_motion_truth(self):
        pair, gt = synth.make_split_motion()
        assert (gt.u[:, :16] == 1.0).all()
        assert (gt.u[:, 16:] == 0.0).all()
        assert not gt.v.any()

    def test_generator_reference_values(self):
        # first three uniforms from seed 0, frozen so other implementations
        # can reproduce the fixtures bit for bit
        u = synth.uniforms(0, 3)
        expected = [0.8833108082136426, 0.43152799704850997, 0.026433771592597743]
        np.testing.assert_array_equal(u, expected)
        assert np.all((0.0 <= u) & (u < 1.0))


SOLVER_DEFAULTS = {"max_iter": 50, "tol": None}
IMAGE_DEFAULTS = {**SOLVER_DEFAULTS, "maxval": 255, "peak": 1.0}


class TestParserDefaults:
    @pytest.mark.parametrize(
        "argv, expected",
        [
            (
                ["denoise", "in.pgm", "out.pgm"],
                {**IMAGE_DEFAULTS, "lam": 0.05, "psf": "delta", "variant": "iso"},
            ),
            (["deconv", "in.pgm", "out.pgm", "--psf", "box3"], {**IMAGE_DEFAULTS, "lam": 0.01}),
            (
                ["blind", "in.pgm", "out.pgm"],
                {
                    **IMAGE_DEFAULTS,
                    "lam": 1e-3,
                    "lam_kernel": 1e-3,
                    "kernel_size": 3,
                    "init_psf": None,
                },
            ),
            (
                ["flow", "f1.pgm", "f2.pgm", "out.flo"],
                {**SOLVER_DEFAULTS, "lam": 0.1, "eps": 0.01, "variant": "tv"},
            ),
        ],
        ids=["denoise", "deconv", "blind", "flow"],
    )
    def test_defaults(self, argv, expected):
        args = cli.build_parser().parse_args(argv)
        assert {key: getattr(args, key) for key in expected} == expected

    @pytest.mark.parametrize("argv", [
        ["denoise", "in.pgm", "out.pgm"],
        ["blind", "in.pgm", "out.pgm"],
        ["flow", "f1.pgm", "f2.pgm", "out.flo"],
    ], ids=["denoise", "blind", "flow"])
    def test_solver_config_uses_library_forcing(self, argv):
        cfg = cli._solver_config(cli.build_parser().parse_args(argv))
        assert cfg.forcing == SolverConfig().forcing > 0

    @pytest.mark.parametrize("command, solver, expected", [
        ("denoise", (restore, "tv_deconvolve"), RestoreParams()),
        ("deconv", (restore, "tv_deconvolve"), RestoreParams(lam=0.01)),
        ("blind", (restore, "blind_deconvolve"), BlindParams()),
        ("flow", (cli, "estimate_flow"), FlowParams()),
    ], ids=["denoise", "deconv", "blind", "flow"])
    def test_bare_command_builds_library_params(self, tmp_path, monkeypatch, command, solver,
                                                 expected):
        # each parser default is read from the library, so no flag builds
        # the library's own params (deconv keeps its own --lambda)
        class Built(Exception):
            pass

        def capture(*args, **kwargs):
            raise Built(args[-1])

        monkeypatch.setattr(*solver, capture)
        src = tmp_path / "in.pgm"
        write_pgm(src, np.random.default_rng(5).uniform(0.0, 1.0, (8, 8)))
        argv = [command, str(src), str(tmp_path / "out.pgm")]
        if command == "flow":
            argv.insert(2, str(src))
        if command == "deconv":
            argv += ["--psf", "box3"]
        with pytest.raises(Built) as built:
            main(argv)
        assert built.value.args[0] == expected


class TestCliRuns:
    @pytest.mark.parametrize(
        "fixture, names",
        [
            ("step32", ["step32_clean.pgm", "step32_noisy.pgm"]),
            ("piecewise64", ["piecewise64_clean.pgm", "piecewise64_noisy.pgm"]),
            ("ramp-shift", ["ramp_shift_f1.pgm", "ramp_shift_f2.pgm", "ramp_shift_gt.flo"]),
            (
                "split-motion",
                ["split_motion_f1.pgm", "split_motion_f2.pgm", "split_motion_gt.flo"],
            ),
        ],
        ids=["step32", "piecewise64", "ramp-shift", "split-motion"],
    )
    def test_synth_byte_identical(self, tmp_path, capsys, fixture, names):
        d1 = tmp_path / "a"
        d2 = tmp_path / "b"
        for d in (d1, d2):
            assert main(["synth", fixture, "--outdir", str(d), "--seed", "7"]) == 0
            assert capsys.readouterr().out.split("\n")[:-1] == [
                f"wrote {d / name}" for name in names
            ]
            assert sorted(p.name for p in d.iterdir()) == sorted(names)
        for name in names:
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()

    def test_denoise_aniso_runs(self, tmp_path):
        assert main(["synth", "step32", "--outdir", str(tmp_path)]) == 0
        out = tmp_path / "den.pgm"
        code = main([
            "denoise", str(tmp_path / "step32_noisy.pgm"), str(out),
            "--variant", "aniso", "--max-iter", "3",
        ])
        assert code == 0
        assert out.exists() and (tmp_path / "den.csv").exists()

    def test_flow_image_driven_runs(self, tmp_path, capsys):
        assert main(["synth", "split-motion", "--outdir", str(tmp_path)]) == 0
        capsys.readouterr()
        code = main([
            "flow", str(tmp_path / "split_motion_f1.pgm"),
            str(tmp_path / "split_motion_f2.pgm"), str(tmp_path / "est.flo"),
            "--variant", "an", "--gt", str(tmp_path / "split_motion_gt.flo"),
        ])
        assert code == 0
        keys = [item.split("=")[0] for item in capsys.readouterr().out.split()]
        assert keys == ["objective", "epe_mean", "epe_max", "wall_time_s"]
        assert read_flo(tmp_path / "est.flo").u.shape == (32, 32)

    def test_denoise_zero_lambda_copies_input(self, tmp_path):
        rng = np.random.default_rng(9)
        src = tmp_path / "in.pgm"
        out = tmp_path / "out.pgm"
        write_pgm(src, rng.uniform(0.0, 1.0, (8, 8)))
        code = main(["denoise", str(src), str(out), "--lambda", "0"])
        assert code == 0
        np.testing.assert_allclose(read_pgm(out), read_pgm(src), atol=1.01 / 255)
        assert (tmp_path / "out.csv").exists()

    def test_denoise_improves_psnr(self, tmp_path, capsys):
        assert main(["synth", "step32", "--outdir", str(tmp_path)]) == 0
        capsys.readouterr()
        code = main([
            "denoise", str(tmp_path / "step32_noisy.pgm"), str(tmp_path / "den.pgm"),
            "--lambda", "0.05", "--ref", str(tmp_path / "step32_clean.pgm"),
        ])
        assert code == 0
        stdout = capsys.readouterr().out
        line = {k: v for k, v in
                (item.split("=") for item in stdout.split())}
        assert float(line["psnr"]) > 20.0
        assert "objective" in line and "wall_time_s" in line

    def test_flow_prints_epe(self, tmp_path, capsys):
        assert main(["synth", "ramp-shift", "--outdir", str(tmp_path)]) == 0
        capsys.readouterr()
        code = main([
            "flow", str(tmp_path / "ramp_shift_f1.pgm"), str(tmp_path / "ramp_shift_f2.pgm"),
            str(tmp_path / "est.flo"), "--variant", "tv", "--lambda", "0.003",
            "--eps", "0.05", "--gt", str(tmp_path / "ramp_shift_gt.flo"),
        ])
        assert code == 0
        stdout = capsys.readouterr().out
        fields = {k: v for k, v in (item.split("=") for item in stdout.split())}
        assert float(fields["epe_mean"]) <= 0.2
        w = read_flo(tmp_path / "est.flo")
        assert w.u.shape == (32, 32)

    def test_flow_without_gt_prints_no_epe(self, tmp_path, capsys):
        assert main(["synth", "ramp-shift", "--outdir", str(tmp_path)]) == 0
        capsys.readouterr()
        code = main(["flow", str(tmp_path / "ramp_shift_f1.pgm"),
                     str(tmp_path / "ramp_shift_f2.pgm"), str(tmp_path / "est.flo")])
        assert code == 0
        keys = [item.split("=")[0] for item in capsys.readouterr().out.split()]
        assert keys == ["objective", "wall_time_s"]

    def test_metrics_command(self, tmp_path, capsys):
        a = tmp_path / "a.pgm"
        b = tmp_path / "b.pgm"
        write_pgm(a, np.full((4, 4), 0.5))
        write_pgm(b, np.full((4, 4), 0.5))
        assert main(["metrics", str(a), "--ref", str(b)]) == 0
        out = capsys.readouterr().out
        assert "psnr=300" in out

    def test_missing_input_exits_one(self, tmp_path):
        out = tmp_path / "out.pgm"
        code = main(["denoise", str(tmp_path / "nope.pgm"), str(out)])
        assert code == 1
        assert not out.exists()

    @pytest.mark.parametrize("command, solver", [
        ("denoise", (restore, "tv_deconvolve")),
        ("deconv", (restore, "tv_deconvolve")),
        ("blind", (restore, "blind_deconvolve")),
        ("flow", (cli, "estimate_flow")),
    ], ids=["denoise", "deconv", "blind", "flow"])
    def test_missing_reference_exits_one_before_solving(self, tmp_path, monkeypatch,
                                                        command, solver):
        def never(*args, **kwargs):
            raise AssertionError("solver called")

        monkeypatch.setattr(*solver, never)
        src = tmp_path / "in.pgm"
        write_pgm(src, np.random.default_rng(4).uniform(0.0, 1.0, (8, 8)))
        if command == "flow":
            out = tmp_path / "out.flo"
            argv = ["flow", str(src), str(src), str(out), "--gt", str(tmp_path / "nope.flo")]
        else:
            out = tmp_path / "out.pgm"
            argv = [command, str(src), str(out), "--ref", str(tmp_path / "nope.pgm")]
            if command == "deconv":
                argv += ["--psf", "box3"]
        assert main(argv) == 1
        assert sorted(tmp_path.iterdir()) == [src]

    @pytest.mark.parametrize("command, flags", [
        ("deconv", ["--psf", "box:0"]),
        ("deconv", ["--psf", "gaussian:4:1.0"]),
        ("deconv", ["--psf", "box3:7"]),
        ("deconv", ["--psf", "gaussian:5:1.0:2"]),
        ("denoise", ["--lambda", "nan"]),
        ("denoise", ["--lambda", "inf"]),
        ("denoise", ["--alpha", "inf"]),
        ("blind", ["--lambda-kernel", "nan"]),
        ("blind", ["--lambda", "inf"]),
        ("flow", ["--eps", "inf"]),
        ("denoise", ["--tol", "inf"]),
        ("denoise", ["--ref", "in.pgm", "--peak", "nan"]),
        ("blind", ["--ref", "in.pgm", "--peak", "nan"]),
    ], ids=["box0", "gaussian-even", "box3-surplus", "gaussian-surplus", "lambda-nan",
            "lambda-inf", "alpha-inf", "lambda-kernel-nan", "blind-lambda-inf", "flow-eps-inf",
            "tol-inf", "peak-nan", "blind-peak-nan"])
    def test_bad_parameter_exits_one_before_output(self, tmp_path, monkeypatch, capsys,
                                                   command, flags):
        monkeypatch.chdir(tmp_path)  # so a flag can name the input as in.pgm
        src = tmp_path / "in.pgm"
        write_pgm(src, np.random.default_rng(5).uniform(0.0, 1.0, (8, 8)))
        if command == "flow":
            files = [str(src), str(src), str(tmp_path / "out.flo")]
        else:
            files = [str(src), str(tmp_path / "out.pgm")]
        assert main([command, *files, *flags]) == 1
        assert capsys.readouterr().err.startswith("error:")
        assert sorted(tmp_path.iterdir()) == [src]

    def test_initial_kernel_without_positive_tap_exits_one(self, tmp_path, monkeypatch,
                                                           capsys):
        def never(*args, **kwargs):
            raise AssertionError("solve started")

        monkeypatch.setattr(solvers, "tv_restore_fixed_point", never)
        src = tmp_path / "in.pgm"
        psf = tmp_path / "neg.txt"
        write_pgm(src, np.random.default_rng(5).uniform(0.0, 1.0, (8, 8)))
        write_kernel_text(psf, Kernel(-np.ones((3, 3))))
        assert main(["blind", str(src), str(tmp_path / "out.pgm"), "--init-psf", f"@{psf}"]) == 1
        assert capsys.readouterr().err.startswith("error: kernel0")
        assert sorted(tmp_path.iterdir()) == [src, psf]

    @pytest.mark.parametrize("maxval", ["0", "70000"])
    @pytest.mark.parametrize("command, solver", [
        ("denoise", "tv_deconvolve"),
        ("deconv", "tv_deconvolve"),
        ("blind", "blind_deconvolve"),
    ])
    def test_bad_maxval_exits_one_before_reading(self, tmp_path, monkeypatch, capsys,
                                                 command, solver, maxval):
        def never(*args, **kwargs):
            raise AssertionError("solver called with a bad --maxval")

        monkeypatch.setattr(restore, solver, never)
        src = tmp_path / "in.pgm"
        write_pgm(src, np.full((8, 8), 0.5))
        out = tmp_path / "out.pgm"
        # a missing input is not reported either: maxval is checked first
        for image in (src, tmp_path / "missing.pgm"):
            argv = [command, str(image), str(out), "--maxval", maxval]
            if command == "deconv":
                argv += ["--psf", "box3"]
            assert main(argv) == 1
            assert "error: maxval must be in [1, 65535]" in capsys.readouterr().err
            assert sorted(tmp_path.iterdir()) == [src]

    # every fixture checks --sigma, the frame pairs too, though they add no
    # noise; a step32 case's id is its sigma alone
    @pytest.mark.parametrize("fixture, sigma", [
        *(pytest.param("step32", sigma, id=sigma) for sigma in ("nan", "inf", "-0.1")),
        pytest.param("ramp-shift", "nan", id="ramp-shift-nan"),
        pytest.param("split-motion", "-0.1", id="split-motion--0.1"),
    ])
    def test_bad_noise_level_exits_one_before_output(self, tmp_path, capsys, fixture, sigma):
        out = tmp_path / "fx"
        assert main(["synth", fixture, "--outdir", str(out), "--sigma", sigma]) == 1
        assert capsys.readouterr().err.startswith("error:")
        assert not out.exists()

    @pytest.mark.parametrize("peak", ["nan", "inf", "0"])
    def test_bad_peak_exits_one(self, tmp_path, capsys, peak):
        a = tmp_path / "a.pgm"
        write_pgm(a, np.full((4, 4), 0.5))
        assert main(["metrics", str(a), "--ref", str(a), "--peak", peak]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and captured.out == ""

    def test_unknown_fixture_exits_one(self, tmp_path):
        assert main(["synth", "mystery", "--outdir", str(tmp_path)]) == 1

    def test_bad_flag_exits_one(self):
        assert main(["denoise", "--no-such-flag"]) == 1

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "denoise" in capsys.readouterr().out

    def test_solver_failure_exits_two_with_partial_report(self, tmp_path):
        assert main(["synth", "ramp-shift", "--outdir", str(tmp_path)]) == 0
        # both flow variants overflow in their first lagged step
        for name, flags in (("tv", ["--lambda", "1e300", "--eps", "1e-160"]),
                            ("an", ["--variant", "an", "--lambda", "1e308"])):
            out = tmp_path / f"{name}.flo"
            code = main([
                "flow", str(tmp_path / "ramp_shift_f1.pgm"),
                str(tmp_path / "ramp_shift_f2.pgm"), str(out), *flags,
            ])
            assert code == 2, name
            assert not out.exists()
            assert read_report(tmp_path / f"{name}.csv").outer_iterations == 0

    def test_unwritable_partial_report_still_exits_two(self, tmp_path, capsys):
        # the partial CSV goes beside an output in a missing directory: it
        # cannot be written, and the solver failure still exits 2
        assert main(["synth", "ramp-shift", "--outdir", str(tmp_path)]) == 0
        capsys.readouterr()
        code = main(["flow", str(tmp_path / "ramp_shift_f1.pgm"),
                     str(tmp_path / "ramp_shift_f2.pgm"), str(tmp_path / "missing" / "x.flo"),
                     "--variant", "an", "--lambda", "1e308"])
        assert code == 2
        assert not (tmp_path / "missing").exists()
        assert capsys.readouterr().err.startswith("error: ")

    def test_blind_failure_exits_two_with_partial_report(self, tmp_path, monkeypatch):
        # the first alternation projects once; the second projection fails
        project = restore._project_kernel
        calls = []

        def collapse_on_second_call(weights):
            calls.append(weights)
            if len(calls) == 2:
                raise restore.DegenerateKernelError("kernel collapsed")
            return project(weights)

        monkeypatch.setattr(restore, "_project_kernel", collapse_on_second_call)
        clean = np.full((16, 16), 0.2)
        clean[4:12, 3:9] = 0.8
        src = tmp_path / "blurred.pgm"
        write_pgm(src, grid.convolve(clean, Kernel.motion_horizontal(3)), maxval=65535)
        out = tmp_path / "deblurred.pgm"
        code = main(["blind", str(src), str(out), "--max-iter", "4", "--tol", "1e-12"])
        assert code == 2
        assert len(calls) == 2
        assert not out.exists()
        assert len(read_report(tmp_path / "deblurred.csv").objective_history) >= 1

    def test_deconv_round_trip(self, tmp_path):
        rng = np.random.default_rng(21)
        clean = np.full((16, 16), 0.3)
        clean[4:12, 4:12] = 0.7
        g = grid.convolve(clean, Kernel.box(3))
        src = tmp_path / "blurred.pgm"
        write_pgm(src, g, maxval=65535)
        out = tmp_path / "sharp.pgm"
        code = main(["deconv", str(src), str(out), "--psf", "box3", "--lambda", "0.002"])
        assert code == 0
        f = read_pgm(out)
        assert np.abs(np.diff(f, axis=1)).max() > np.abs(np.diff(g, axis=1)).max()

    def test_blind_writes_kernel(self, tmp_path):
        assert main(["synth", "piecewise64", "--outdir", str(tmp_path)]) == 0
        clean = read_pgm(tmp_path / "piecewise64_clean.pgm")
        g = grid.convolve(clean, Kernel.motion_horizontal(3))
        src = tmp_path / "blurred.pgm"
        write_pgm(src, g, maxval=65535)
        out = tmp_path / "deblurred.pgm"
        kout = tmp_path / "kernel.txt"
        code = main([
            "blind", str(src), str(out), "--kernel-out", str(kout),
            "--lambda", "3e-3", "--lambda-kernel", "0.5", "--max-iter", "8",
        ])
        assert code == 0
        k = read_kernel_text(kout)
        assert k.weights.min() >= 0.0
        assert k.weights.sum() == pytest.approx(1.0, abs=1e-12)


def test_import_leaves_io_modules_unloaded():
    # the benchmark's set-up time counts what ``import tvkit`` loads
    code = "import sys, tvkit; print(sorted(m for m in sys.modules if m.startswith('tvkit')))"
    src = str(Path(fileio.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src}).stdout
    assert "tvkit.fileio" not in out and "tvkit.cli" not in out
    assert "'tvkit'" in out
