"""Touchstone v1 export of 3-port S-parameters and the multi-harmonic CSV.

The writer emits the harmonic-0 block as ``.s3p``: an option line
``# Hz S RI R <z0>`` (z0 to 6 significant digits when that is exact, else
every digit), then one line per frequency with 18 real columns
(Re/Im pairs in row-major order S11 S12 S13 S21 ... S33) at 9 significant
digits.  The reader is deliberately independent of the writer: it tokenizes
any line layout, handles kHz/MHz/GHz units and RI/MA/DB formats, so it can
serve as the round-trip check.

Full multi-harmonic data goes to CSV with columns f_hz, n, q, p, re_s, im_s.
"""

from __future__ import annotations

import math

import numpy as np

from .fileio import BLOCK_ROWS, atomic_open
from .htm import SParamGrid

_UNIT_SCALE = {"hz": 1.0, "khz": 1e3, "mhz": 1e6, "ghz": 1e9}


class TouchstoneError(ValueError):
    """Malformed Touchstone content."""


def write_s3p(path, freqs, s0, z0: float, comments: tuple[str, ...] = ()) -> None:
    """Write harmonic-0 S-parameters of a 3-port as Touchstone v1 text.

    ``s0`` has shape (F, 3, 3); ``comments`` become leading ``!`` lines.
    """
    freqs = np.asarray(freqs, dtype=float)
    s0 = np.asarray(s0)
    if s0.ndim != 3 or s0.shape[1:] != (3, 3) or s0.shape[0] != freqs.size:
        raise ValueError(f"expected (F, 3, 3) S data, got {s0.shape}")
    lines = [f"! {c}\n" for c in comments]
    short = f"{z0:g}"  # "50" for 50; a z0 that 6 digits would round is written in full
    lines.append(f"# Hz S RI R {short if float(short) == z0 else repr(float(z0))}\n")
    template = " ".join(["%.8e"] * 19) + "\n"
    s0 = s0.reshape(-1, 9)
    with atomic_open(path) as fh:
        fh.write("".join(lines).encode("utf-8"))
        for b in range(0, freqs.size, BLOCK_ROWS):
            # each row: f, then Re and Im of S11 S12 ... S33
            rows = np.column_stack([freqs[b:b + BLOCK_ROWS],
                                    s0[b:b + BLOCK_ROWS].astype(complex).view(float)])
            fh.write("".join(template % tuple(row) for row in rows.tolist()).encode("utf-8"))


def read_s3p(path):
    """Parse a 3-port Touchstone v1 file -> (freqs_hz, s (F,3,3), z0).

    Tolerates arbitrary line wrapping, ``!`` comments, and the MA/DB value
    formats; this parser shares no code with :func:`write_s3p`.
    """
    unit = 1.0
    fmt = "ri"
    z0 = 50.0
    numbers: list[float] = []
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.split("!", 1)[0].strip()
            if not line:
                continue
            if line.startswith("#"):
                toks = line[1:].lower().split()
                i = 0
                while i < len(toks):
                    t = toks[i]
                    if t in _UNIT_SCALE:
                        unit = _UNIT_SCALE[t]
                    elif t in ("ri", "ma", "db"):
                        fmt = t
                    elif t == "r" and i + 1 < len(toks):
                        z0 = float(toks[i + 1])
                        i += 1
                    i += 1
                continue
            for tok in line.split():
                try:
                    numbers.append(float(tok))
                except ValueError as exc:
                    raise TouchstoneError(f"non-numeric token {tok!r}") from exc
    if not numbers or len(numbers) % 19 != 0:
        raise TouchstoneError(f"expected blocks of 19 numbers, got {len(numbers)}")
    rows = len(numbers) // 19
    freqs = np.empty(rows)
    s = np.empty((rows, 3, 3), dtype=complex)
    for r in range(rows):
        block = numbers[19 * r:19 * (r + 1)]
        freqs[r] = block[0] * unit
        vals = block[1:]
        for k in range(9):
            a, b = vals[2 * k], vals[2 * k + 1]
            if fmt == "ri":
                v = complex(a, b)
            elif fmt == "ma":
                v = a * complex(math.cos(math.radians(b)), math.sin(math.radians(b)))
            else:  # db
                mag = 10.0 ** (a / 20.0)
                v = mag * complex(math.cos(math.radians(b)), math.sin(math.radians(b)))
            s[r, k // 3, k % 3] = v
    return freqs, s, z0


def harmonics_header(z0, comments: tuple[str, ...] = ()) -> bytes:
    """The lines of the multi-harmonic CSV above its data: ``comments`` as
    ``#`` lines, the port impedances, the column names."""
    lines = [f"# {c}\n" for c in comments]
    lines.append("# z0_ohm = " + " ".join(repr(float(z)) for z in z0) + "\n")
    lines.append("f_hz,n,q,p,re_s,im_s\n")
    return "".join(lines).encode("utf-8")


def write_harmonics_rows(fh, grid: SParamGrid) -> None:
    """The data lines of the multi-harmonic CSV for ``grid``, written to the
    binary handle ``fh`` one stimulus point's lines at a time; ``simulate``
    writes :func:`harmonics_header`, then these lines of each slice of its sweep."""
    nh = grid.n_harm
    keys = [f"{n},{q + 1},{p + 1}" for n in range(-nh, nh + 1)
            for q in range(grid.ports) for p in range(grid.ports)]
    freqs = np.asarray(grid.frequencies, dtype=float).tolist()
    for f, row in zip(freqs, grid.data.reshape(len(freqs), -1)):
        f_s = repr(f)
        fh.write("".join(f"{f_s},{key},{re!r},{im!r}\n" for key, re, im
                         in zip(keys, row.real.tolist(), row.imag.tolist())).encode("utf-8"))


def read_harmonics_csv(path) -> SParamGrid:
    """Rebuild an :class:`SParamGrid` from a multi-harmonic CSV."""
    z0 = None
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                if "z0_ohm =" in line:
                    z0 = np.array([float(t) for t in line.split("=", 1)[1].split()])
                continue
            if line.startswith("f_hz"):
                continue
            f_s, n_s, q_s, p_s, re_s, im_s = line.split(",")
            rows.append((float(f_s), int(n_s), int(q_s), int(p_s),
                         complex(float(re_s), float(im_s))))
    if not rows:
        raise TouchstoneError("no data rows")
    freqs = sorted({r[0] for r in rows})
    n_harm = max(r[1] for r in rows)
    ports = max(r[2] for r in rows)
    fidx = {f: i for i, f in enumerate(freqs)}
    data = np.zeros((len(freqs), 2 * n_harm + 1, ports, ports), dtype=complex)
    for f, n, q, p, v in rows:
        data[fidx[f], n + n_harm, q - 1, p - 1] = v
    if z0 is None:
        z0 = np.full(ports, 50.0)
    return SParamGrid(frequencies=np.array(freqs), n_harm=n_harm, z0=z0, data=data)
