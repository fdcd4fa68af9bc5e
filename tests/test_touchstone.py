import io
import shutil
import tempfile
import tracemalloc

import numpy as np
import pytest

from fbarcirc.htm import HarmonicBasis, SParamGrid, sparams
from fbarcirc.netlist import CirculatorDesign, Topology, build_circulator
from fbarcirc.fileio import BLOCK_ROWS, atomic_open
from fbarcirc.touchstone import (TouchstoneError, harmonics_header, read_harmonics_csv,
                                 read_s3p, s3p_header, write_harmonics_rows, write_s3p,
                                 write_s3p_rows)

from conftest import GHZ_SPECS


def _random_grid(points, n_harm):
    rng = np.random.default_rng(0)
    shape = (points, 2 * n_harm + 1, 3, 3)
    return SParamGrid(np.linspace(2.65e9, 2.70e9, points), n_harm, np.full(3, 50.0),
                      rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def write_harmonics(path, grid, comments=()):
    """The multi-harmonic CSV as ``simulate`` writes it: the rows to a temp
    file, then the header and the rows' bytes to ``path``."""
    with tempfile.TemporaryFile() as rows:
        write_harmonics_rows(rows, grid)
        with atomic_open(path) as fh:
            fh.write(harmonics_header(grid.z0, comments))
            rows.seek(0)
            shutil.copyfileobj(rows, fh)


def _peak_bytes(fn, *args):
    """tracemalloc peak of one call, above what was allocated before it."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def demo_grid():
    design = CirculatorDesign(Topology.DIFFERENTIAL, GHZ_SPECS, delta=0.02, f_mod=23.2e6)
    net = build_circulator(design)
    freqs = np.linspace(2.66e9, 2.70e9, 5)
    return sparams(net, HarmonicBasis(23.2e6, 2), freqs)


class TestS3p:
    def test_round_trip_values(self, tmp_path, demo_grid):
        path = tmp_path / "demo.s3p"
        write_s3p(path, demo_grid.frequencies, demo_grid.s0, 50.0)
        freqs, s, z0 = read_s3p(path)
        assert z0 == 50.0
        assert np.max(np.abs(freqs - demo_grid.frequencies) / demo_grid.frequencies) <= 1e-9
        assert np.max(np.abs(s - demo_grid.s0)) <= 1e-9

    def test_header_and_line_layout(self, tmp_path, demo_grid):
        path = tmp_path / "demo.s3p"
        write_s3p(path, demo_grid.frequencies[:2], demo_grid.s0[:2], 50.0,
                  comments=("config_fingerprint = abc",))
        lines = path.read_text().splitlines()
        assert lines[0] == "! config_fingerprint = abc"
        assert lines[1] == "# Hz S RI R 50"
        body = lines[2:]
        assert len(body) == 2
        assert all(len(line.split()) == 19 for line in body)
        # 9 significant digits: mantissa has 8 decimals
        assert body[0].split()[0] == f"{demo_grid.frequencies[0]:.8e}"

    @pytest.mark.parametrize("z0, option", [(50.0, "R 50"), (75.25, "R 75.25"),
                                            (50.123456789, "R 50.123456789"),
                                            (1.0 / 3.0, "R 0.3333333333333333")])
    def test_z0_reads_back_exactly(self, tmp_path, demo_grid, z0, option):
        # 6 significant digits where they are exact, every digit otherwise
        path = tmp_path / "demo.s3p"
        write_s3p(path, demo_grid.frequencies[:1], demo_grid.s0[:1], np.float64(z0))
        assert path.read_text().splitlines()[0] == f"# Hz S RI {option}"
        assert read_s3p(path)[2] == z0

    def test_reader_tolerates_wrapped_lines(self, tmp_path, demo_grid):
        path = tmp_path / "demo.s3p"
        write_s3p(path, demo_grid.frequencies[:1], demo_grid.s0[:1], 50.0)
        tokens = []
        for line in path.read_text().splitlines():
            if line.startswith(("!", "#")):
                continue
            tokens.extend(line.split())
        wrapped = tmp_path / "wrapped.s3p"
        wrapped.write_text("# Hz S RI R 50\n" + "\n".join(
            " ".join(tokens[i:i + 7]) + " ! row comment" for i in range(0, len(tokens), 7)))
        freqs, s, _ = read_s3p(wrapped)
        assert np.max(np.abs(s - demo_grid.s0[:1])) <= 1e-9

    def test_reader_handles_ma_and_units(self, tmp_path):
        s_val = 0.5 * np.exp(1j * np.radians(30.0))
        cells = []
        for k in range(9):
            cells += ["0.5", "30.0"] if k == 1 else ["0.0", "0.0"]
        path = tmp_path / "ma.s3p"
        path.write_text("# GHz S MA R 75\n2.68 " + " ".join(cells) + "\n")
        freqs, s, z0 = read_s3p(path)
        assert z0 == 75.0
        assert freqs[0] == pytest.approx(2.68e9)
        assert s[0, 0, 1] == pytest.approx(s_val, rel=1e-12)
        assert s[0, 0, 0] == 0.0

    def test_malformed_rejected(self, tmp_path):
        bad = tmp_path / "bad.s3p"
        bad.write_text("# Hz S RI R 50\n1e9 0.1 0.2 0.3\n")
        with pytest.raises(TouchstoneError):
            read_s3p(bad)
        nonnum = tmp_path / "nn.s3p"
        nonnum.write_text("# Hz S RI R 50\n1e9 abc\n")
        with pytest.raises(TouchstoneError):
            read_s3p(nonnum)

    def test_streams_in_blocks(self, tmp_path):
        # the MAX_SWEEP_SIZE sweep at n_harm = 5: 5957 points, 1.8 MB of text
        # that were 6.7 MiB at the peak when formatted whole
        grid = _random_grid(5957, 5)
        path = tmp_path / "big.s3p"
        assert _peak_bytes(write_s3p, path, grid.frequencies, grid.s0, 50.0) < 2 ** 20
        freqs, s, _ = read_s3p(path)
        assert freqs.size == 5957
        assert np.max(np.abs(s - grid.s0)) <= 1e-8 * np.max(np.abs(grid.s0))

    @pytest.mark.parametrize("cuts", [
        (BLOCK_ROWS,), (BLOCK_ROWS - 1,), (BLOCK_ROWS + 1,),
        (100, 100 + BLOCK_ROWS + 50),  # a piece across a block boundary
        (0, 1, 2 * BLOCK_ROWS, 2 * BLOCK_ROWS),  # empty pieces and a one-row piece
    ], ids=["at-a-block", "one-before", "one-after", "across-a-block", "empty-pieces"])
    @pytest.mark.parametrize("z0", [50.0, 1.0 / 3.0], ids=["short-z0", "full-z0"])
    def test_header_and_rows_of_any_cut_give_the_file(self, tmp_path, z0, cuts):
        # simulate writes each slice's rows on its own; the grid spans
        # several blocks, so pieces start and end inside one and on its edge
        grid = _random_grid(2 * BLOCK_ROWS + 100, 0)
        comments = ("config_fingerprint = abc",)
        whole = tmp_path / "whole.s3p"
        write_s3p(whole, grid.frequencies, grid.s0, z0, comments=comments)
        pieces = io.BytesIO(s3p_header(z0, comments))
        pieces.seek(0, io.SEEK_END)
        bounds = (0, *cuts, grid.frequencies.size)
        for a, b in zip(bounds, bounds[1:]):
            write_s3p_rows(pieces, grid.frequencies[a:b], grid.s0[a:b])
        assert pieces.getvalue() == whole.read_bytes()
        assert whole.read_text().splitlines()[1] == (
            "# Hz S RI R 50" if z0 == 50.0 else "# Hz S RI R 0.3333333333333333")

    def test_wrong_shape_rejected(self, tmp_path, demo_grid):
        with pytest.raises(ValueError):
            write_s3p(tmp_path / "x.s3p", demo_grid.frequencies,
                      demo_grid.s0[:, :2, :2], 50.0)
        assert list(tmp_path.iterdir()) == []


class TestHarmonicsCsv:
    def test_exact_round_trip(self, tmp_path, demo_grid):
        path = tmp_path / "h.csv"
        write_harmonics(path, demo_grid, comments=("config_fingerprint = xyz",))
        back = read_harmonics_csv(path)
        assert back.n_harm == demo_grid.n_harm
        assert back.ports == demo_grid.ports
        assert np.array_equal(back.frequencies, demo_grid.frequencies)
        assert np.array_equal(back.data, demo_grid.data)
        assert np.array_equal(back.z0, demo_grid.z0)

    def test_comment_carried(self, tmp_path, demo_grid):
        path = tmp_path / "h.csv"
        write_harmonics(path, demo_grid, comments=("config_fingerprint = xyz",))
        head = path.read_text().splitlines()[0]
        assert head == "# config_fingerprint = xyz"

    def test_bytes_match_per_value_repr(self, tmp_path, demo_grid):
        data = demo_grid.data[:2].copy()
        data[0, 0, 0, 0] = complex(-0.0, 0.0)
        data[1, 2, 1, 2] = complex(0.0, -0.0)
        data[1, 4, 2, 0] = complex(1e-300, -5e-324)
        grid = SParamGrid(demo_grid.frequencies[:2], demo_grid.n_harm, demo_grid.z0, data)
        lines = ["# z0_ohm = " + " ".join(repr(float(z)) for z in grid.z0),
                 "f_hz,n,q,p,re_s,im_s"]
        nh = grid.n_harm
        for fi, f in enumerate(grid.frequencies):
            for n in range(-nh, nh + 1):
                for q in range(grid.ports):
                    for p in range(grid.ports):
                        v = grid.data[fi, n + nh, q, p]
                        lines.append(f"{float(f)!r},{n},{q + 1},{p + 1},"
                                     f"{float(v.real)!r},{float(v.imag)!r}")
        path = tmp_path / "h.csv"
        write_harmonics(path, grid)
        assert path.read_bytes() == ("\n".join(lines) + "\n").encode()
        text = path.read_text()
        assert ",-0.0,0.0\n" in text and ",0.0,-0.0\n" in text

    def test_streams_one_point_at_a_time(self, tmp_path):
        # the benchmark sweep's size: 252 points x 99 values, 1.7 MB of text
        # that were 6 MiB at the peak when formatted whole
        grid = _random_grid(252, 5)
        path = tmp_path / "h.csv"
        assert _peak_bytes(write_harmonics, path, grid) < 2 ** 20
        back = read_harmonics_csv(path)
        assert np.array_equal(back.data, grid.data)

    def test_empty_rejected(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("f_hz,n,q,p,re_s,im_s\n")
        with pytest.raises(TouchstoneError):
            read_harmonics_csv(path)
