"""Run configuration, CSV datasets and static SVG plots.

Configs are JSON documents that hold every setting of a run (the command
line adds only the output directory), so every run is reproducible from
its config alone.  CSV output uses a fixed header and 12-significant-digit
floats and is byte-identical across runs.  Plots are plain SVG 1.1 text
with no external assets, so they diff cleanly in version control.
A long series is drawn through its M4 points; the CSV keeps every point.
Numbers are formatted in batches, by one %-template per grid time (CSV
rows) or per series (SVG paths).  Files are written to a temporary file
and renamed into place; the CSV streams there in chunks of grid times.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, replace
from numbers import Integral
from pathlib import Path

import numpy as np

from .correlations import MAX_GRID, MAX_REFINE_ITERS, SIDES
from .experiments import SERIES_MEASURES, SweepResult, check_partitions, run_sweep
from .model import FAMILIES, PARTITION_ORDER, SPECTRAL_FIELDS, Scenario, SpectralDensity, as_number

CSV_HEADER = ",".join(("time", "partition", "pipeline", *SERIES_MEASURES, "measured_side"))

PIPELINE_NAMES = {"closed": "closed_form", "brute": "brute_force", "both": "both"}

# config keys that set the RunConfig field of the same name to their value
_FIELD_KEYS = {"time_start", "time_end", "time_steps", "partitions", "pipeline", "grid",
               "refine_iters", "side", "svg"}

_TOP_KEYS = _FIELD_KEYS | {"family", "alpha_re", "alpha_im", "beta_re", "beta_im", "spectral"}

# Upper bound of time_steps, far above every value the tests, demos and
# benchmark use: a sweep keeps every grid time.  grid and refine_iters take the optimiser's bounds.
MAX_TIME_STEPS = 100_001


def _number(value, field: str) -> float:
    """``value`` as a finite float; bools, strings and NaN/Infinity are rejected."""
    if (number := as_number(value)) is None:
        raise ValueError(f"config: {field} must be a number, got {value!r}")
    if not math.isfinite(number):
        raise ValueError(f"config: {field} must be finite, got {value!r}")
    return number


def _count(value, field: str, lo: int, hi: int) -> int:
    """An integer in [lo, hi]; bools and non-integral floats are rejected."""
    if (number := as_number(value)) is None or not (isinstance(value, Integral) or number.is_integer()):
        raise ValueError(f"config: {field} must be an integer, got {value!r}")
    value = int(value)
    if not lo <= value <= hi:
        raise ValueError(f"config: {field} is {value}; must be in [{lo}, {hi}]")
    return value


@dataclass(frozen=True)
class RunConfig:
    """Scenario + optimiser + output settings for one run.

    Every field is checked on construction, so also by ``parse_config`` and
    ``dataclasses.replace``; an error names the field.  The spectrum checks
    its own fields, and RunConfig what they give with ``time_end``.  Counts
    are integers (101.0 counts) up to the ``MAX_*`` bounds.  Weights off unit
    norm by less than 1e-6 are renormalised, anything further off is rejected.
    """

    family: str
    alpha: complex
    beta: complex
    spectral: SpectralDensity
    time_start: float = 0.0
    time_end: float = 5.0
    time_steps: int = 101
    partitions: tuple = PARTITION_ORDER
    pipeline: str = "both"
    grid: int = 64
    refine_iters: int = 4
    side: str = "second"
    svg: bool = False

    def __post_init__(self):
        def put(field, value):
            object.__setattr__(self, field, value)

        for field, lo, hi in (("time_steps", 2, MAX_TIME_STEPS), ("grid", 2, MAX_GRID),
                              ("refine_iters", 0, MAX_REFINE_ITERS)):
            put(field, _count(getattr(self, field), field, lo, hi))
        for field, names in (("family", FAMILIES), ("pipeline", tuple(PIPELINE_NAMES)), ("side", SIDES)):
            value = getattr(self, field)
            if not isinstance(value, str) or value not in names:
                raise ValueError(f"config: {field} must be one of {names}, got {value!r}")

        for field in ("alpha", "beta"):
            if (w := as_number(value := getattr(self, field), complex)) is None:
                raise ValueError(f"config: {field} must be a number, got {value!r}")
            put(field, w)
        norm = math.sqrt(abs(self.alpha) ** 2 + abs(self.beta) ** 2)
        if not abs(norm - 1.0) < 1e-6:  # NaN fails too
            raise ValueError(f"config: alpha/beta norm is {norm!r}; |alpha|^2 + |beta|^2 must equal 1 within 1e-6")
        # a renormalised pair is within rounding (a few 1e-16) of unit norm
        # and is kept as it is, so renormalising is idempotent
        scale = norm if abs(norm - 1.0) > 1e-14 else 1.0
        put("alpha", self.alpha / scale)
        put("beta", self.beta / scale)

        put("time_start", _number(self.time_start, "time_start"))
        put("time_end", _number(self.time_end, "time_end"))
        if not self.time_end > self.time_start:
            raise ValueError("config: time_end must exceed time_start")
        if self.time_start < 0.0:
            raise ValueError("config: time_start must be >= 0")
        spectral, time_end = self.spectral, self.time_end
        if not isinstance(spectral, SpectralDensity):
            raise ValueError(f"config: spectral must be a SpectralDensity, got {spectral!r}")
        # the evolution runs on rate * time (largest at time_end, as
        # 0 <= time_start < time_end), and amplitudes_lorentz on the phase
        # sqrt(4 (W / lambda)^2 - 1) * lambda * t
        if not math.isfinite(spectral.rate * time_end):
            raise ValueError(f"config: spectral.{spectral.rate_key} * time_end is not finite")
        if spectral.kind == "lorentz":
            ratio = spectral.W / spectral.lam
            if not math.isfinite(math.sqrt(max(0.0, 4.0 * ratio * ratio - 1.0)) * spectral.lam * time_end):
                raise ValueError("config: spectral W / lambda and time_end give a non-finite oscillation phase")
        # steps far below the spacing of floats at time_end round to zero
        if np.any(np.diff(self._time_grid()) <= 0.0):
            raise ValueError("config: time_start, time_end and time_steps give a time grid that does not increase")

        if not isinstance(self.partitions, (tuple, list)):
            raise ValueError(f"config: partitions must be a list or tuple of names, got {self.partitions!r}")
        put("partitions", check_partitions(self.partitions, "config", PIPELINE_NAMES[self.pipeline]))
        if not isinstance(self.svg, bool):
            raise ValueError("config: svg must be a boolean")

    def _time_grid(self) -> np.ndarray:
        return np.linspace(self.time_start, self.time_end, self.time_steps) * self.spectral.rate

    def scenario(self) -> Scenario:
        return Scenario(self.family, self.alpha, self.beta, self.spectral, self._time_grid())

    def sweep_args(self) -> dict:
        """Keyword arguments of ``run_sweep`` for this run."""
        return dict(scenario=self.scenario(), partitions=self.partitions, pipeline=PIPELINE_NAMES[self.pipeline],
                    side=self.side, grid=self.grid, refine_iters=self.refine_iters)


def parse_config(text: str) -> RunConfig:
    """Read a JSON run configuration into a RunConfig, which checks the values.

    Unknown keys are rejected by name, and numbers must be finite JSON
    numbers.  Keys left out take RunConfig's defaults.  Which spectral keys
    a kind takes is ``SpectralDensity``'s to check.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"config: invalid JSON ({exc})") from None
    if not isinstance(doc, dict):
        raise ValueError("config: top level must be an object")
    unknown = set(doc) - _TOP_KEYS
    if unknown:
        raise ValueError(f"config: unknown key {sorted(unknown)[0]!r}")

    spec_doc = doc.get("spectral")
    if not isinstance(spec_doc, dict):
        raise ValueError("config: spectral must be an object with a 'kind'")
    attrs = {key: attr for fields in SPECTRAL_FIELDS.values() for key, attr in fields.items()}
    unknown = set(spec_doc) - {"kind", *attrs}
    if unknown:
        raise ValueError(f"config: unknown spectral key {sorted(unknown)[0]!r}")
    spectral = SpectralDensity(spec_doc.get("kind"), **{
        attrs[key]: _number(value, key) for key, value in spec_doc.items() if key != "kind"})

    weights = [_number(doc.get(key, 0.0), key) for key in ("alpha_re", "alpha_im", "beta_re", "beta_im")]

    return RunConfig(
        family=doc.get("family"),
        alpha=complex(*weights[:2]),
        beta=complex(*weights[2:]),
        spectral=spectral,
        **{key: doc[key] for key in _FIELD_KEYS & set(doc)},
    )


def _atomic_write(path: Path, data) -> None:
    """Write a string, or an iterable of string chunks, to ``path`` via a temp file and ``os.replace``."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    # created like open() creates a file, so the umask sets the mode
    tmp = path.with_name(f"{path.name}.{os.urandom(6).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", newline="\n") as fh:
            fh.writelines([data] if isinstance(data, str) else data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


_CSV_CHUNK = 1024  # grid times per chunk of CSV text streamed to the file


def emit_csv(result: SweepResult, path) -> Path:
    """Write a sweep as CSV with a fixed schema and deterministic bytes.

    Rows are ordered by (time, partition, pipeline).
    """
    pairs = sorted(result.values)
    # a grid time's rows: its time string joins the segments, its row of the (T, 4 pairs) stack fills them
    segments = [""] + [f",{part},{pipe}{',%.12g' * 4},{result.side}\n" for part, pipe in pairs]
    times = result.times()
    stack = np.concatenate([result.values[pair] for pair in pairs]).T

    def chunks():
        yield CSV_HEADER + "\n"
        for lo in range(0, len(times), _CSV_CHUNK):
            rows = zip(times[lo:lo + _CSV_CHUNK].tolist(), stack[lo:lo + _CSV_CHUNK].tolist())
            yield "".join(("%.12g" % t).join(segments) % tuple(row) for t, row in rows)

    _atomic_write(Path(path), chunks())
    return Path(path)


# ---------------------------------------------------------------------------
# SVG rendering.
# ---------------------------------------------------------------------------

_PLOT_MEASURES = ("quantum", "classical")
_PRIMARY_STYLE = {"quantum": ("#2040c8", "diamond"), "classical": ("#c030b8", "square")}
_OVERLAY_STYLE = {"quantum": ("#303030", "triangle"), "classical": ("#d03030", "circle")}


# each marker shape's %-template and the offsets (dx, dy) of its coordinates from the point, in marker sizes
_MARKER_SIZE = 3.2
_MARKERS = {
    "diamond": ('<polygon points="%.2f,%.2f %.2f,%.2f %.2f,%.2f %.2f,%.2f" fill="{}"/>',
                ((0, -1), (1, 0), (0, 1), (-1, 0))),
    "square": (f'<rect x="%.2f" y="%.2f" width="{2 * _MARKER_SIZE:.2f}" height="{2 * _MARKER_SIZE:.2f}" fill="{{}}"/>',
               ((-1, -1),)),
    "triangle": ('<polygon points="%.2f,%.2f %.2f,%.2f %.2f,%.2f" fill="{}"/>', ((0, -1), (1, 1), (-1, 1))),
    "circle": (f'<circle cx="%.2f" cy="%.2f" r="{_MARKER_SIZE:.2f}" fill="{{}}"/>', ((0, 0),)),
}


def _m4_indices(x: np.ndarray, vals: np.ndarray, pw: int) -> np.ndarray:
    """Indices of the points a series' line is drawn through, in order (M4, see emit_svg_plot).

    ``x`` holds the points' drawn offsets from the panel's left edge in
    pixels, nondecreasing, and ``vals`` their finite values.  A series of
    more than 4 ``pw`` points keeps the first, last, lowest and highest
    point of each of the ``pw`` pixel columns; a shorter one keeps every
    point.
    """
    if vals.size <= 4 * pw:
        return np.arange(vals.size)
    col = np.clip(np.floor(x), 0, pw - 1)
    first = np.flatnonzero(np.diff(col, prepend=-1.0))
    keep = np.zeros(vals.size, dtype=bool)
    keep[first] = keep[first[1:] - 1] = keep[-1] = True  # each column's first and last point
    counts = np.diff(first, append=vals.size)
    for extreme in (np.minimum, np.maximum):
        # the first point of each column at the column's extreme value
        hits = np.flatnonzero(vals == np.repeat(extreme.reduceat(vals, first), counts))
        keep[hits[np.searchsorted(hits, first)]] = True
    return np.flatnonzero(keep)


def emit_svg_plot(result: SweepResult, path, overlay: SweepResult | None = None) -> Path:
    """Render a 2x2-panel static SVG of the sweep's quantum and classical correlations.

    The panels are the first four partitions the sweep covers, in
    ``PARTITION_ORDER``: the spin pair, the reservoir pair, then the mixed
    spin/reservoir pairs.  An optional second sweep is overlaid with its own
    marker family, matching the two-initial-state layout of the reference
    figures; a panel's y-scale covers every series drawn in it.
    Single-point series degenerate to markers with no path.

    A series of more than 4 points per pixel column of its 380-pixel-wide
    panel is drawn through its M4 points (Jugel, Jerzak, Hackenbroich &
    Markl, PVLDB 7(10), 797 (2014)): the first, last, lowest and highest
    point of each column, which set the same pixels as the full line.  So
    the SVG is a picture of the CSV, which keeps every point.
    """
    if not result.values:
        raise ValueError("emit_svg_plot: empty sweep")
    panels = [p for p in PARTITION_ORDER if (p, result.main_pipeline()) in result.values][:4]

    width, height = 880, 640
    pw, ph = 380, 250
    time_label = f"{result.scenario.spectral.rate_key}*t"

    times = result.times()
    tmin, tmax = float(times[0]), float(times[-1])
    span_t = tmax - tmin if tmax > tmin else 1.0
    sources = [(result, times, _PRIMARY_STYLE)]
    legend = "Q: filled diamonds / C: filled squares"
    if overlay is not None:
        sources.append((overlay, overlay.times(), _OVERLAY_STYLE))
        legend += "; overlay Q: triangles / C: circles"
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="monospace" font-size="11">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
        f'<text x="70" y="20" font-size="12">{legend}</text>',
    ]

    for i, part in enumerate(panels):
        x0, y0 = (70, 70 + pw + 60)[i % 2], (50, 50 + ph + 70)[i // 2]
        # (times, values, color, shape) of each non-empty series the panel draws
        series = [(src_times, vals, *style[meas]) for src, src_times, style in sources for meas in _PLOT_MEASURES
                  if (vals := src.series(part, src.main_pipeline(), meas)).size]
        ymax = max([1e-12] + [float(vals.max()) for _, vals, _, _ in series]) * 1.08

        def sx(t):
            return x0 + (t - tmin) / span_t * pw

        def sy(v):
            return y0 + ph - v / ymax * ph

        out += [f'<rect x="{x0}" y="{y0}" width="{pw}" height="{ph}" fill="none" stroke="#404040"/>',
                f'<text x="{x0 + 4}" y="{y0 + 14}">{part}</text>']
        for k in range(5):
            tv = tmin + span_t * k / 4
            yv = ymax / 1.08 * k / 4
            out += [f'<text x="{sx(tv):.2f}" y="{y0 + ph + 16}" text-anchor="middle">{tv:.3g}</text>',
                    f'<text x="{x0 - 6}" y="{sy(yv) + 4:.2f}" text-anchor="end">{yv:.3g}</text>']
        out += [f'<text x="{x0 + pw / 2:.2f}" y="{y0 + ph + 34}" text-anchor="middle">{time_label}</text>',
                f'<text x="{x0 - 52}" y="{y0 + ph / 2:.2f}" transform="rotate(-90 {x0 - 52} {y0 + ph / 2:.2f})" '
                'text-anchor="middle">bits</text>']

        for src_times, vals, color, shape in series:
            if vals.size >= 2:
                xs = sx(src_times)
                keep = _m4_indices(xs - x0, vals, pw)
                xy = np.column_stack((xs[keep], sy(vals[keep]))).ravel().tolist()
                d = "M " + " L ".join(["%.2f %.2f"] * keep.size) % tuple(xy)
                out.append(f'<path d="{d}" fill="none" stroke="{color}" stroke-width="1.2"/>')
            stride = max(1, vals.size // 24)
            template, offsets = _MARKERS[shape]
            mx, my = sx(src_times[::stride]), sy(vals[::stride])
            xy = np.stack([c for dx, dy in offsets for c in (mx + dx * _MARKER_SIZE, my + dy * _MARKER_SIZE)], -1)
            out.append("\n".join([template.format(color)] * mx.size) % tuple(xy.ravel().tolist()))

    out.append("</svg>")
    _atomic_write(Path(path), "\n".join(out) + "\n")
    return Path(path)


# ---------------------------------------------------------------------------
# Built-in figure scenarios.
# ---------------------------------------------------------------------------

_BELL = (2.0 ** -0.5, 2.0 ** -0.5)
_LOPSIDED = (10.0 ** -0.5, 3.0 * 10.0 ** -0.5)

_FLAT = SpectralDensity("flat", gamma=1.0)
_LORENTZ = SpectralDensity("lorentz", W=math.sqrt(200.0), lam=1.0)  # strong coupling: damped oscillations

FIGURE_CONFIGS = {
    name: RunConfig(family=family, alpha=_BELL[0], beta=_BELL[1], spectral=spectral, time_end=time_end,
                    time_steps=81, partitions=PARTITION_ORDER[:4], grid=32, refine_iters=3)
    for name, family, spectral, time_end in (
        ("flat_two_excitation", "two_exc", _FLAT, 5.0),
        ("lorentz_two_excitation", "two_exc", _LORENTZ, 2.0),
        ("flat_one_excitation", "one_exc", _FLAT, 5.0),
        ("lorentz_one_excitation", "one_exc", _LORENTZ, 2.0),
    )
}


def emit_figures(out_dir) -> list[Path]:
    """Compute and write the four built-in figure datasets and plots.

    Each figure yields one CSV (the Bell-state sweep) and one SVG with the
    sweep of the lopsided weights (1/sqrt(10), 3/sqrt(10)) overlaid, the
    second curve family of every reference figure.  All eight sweeps run
    before any file is written.  Output bytes depend only on the configs.
    """
    out_dir = Path(out_dir)
    results = [run_sweep(**replace(cfg, alpha=alpha, beta=beta).sweep_args())
               for cfg in FIGURE_CONFIGS.values() for alpha, beta in (_BELL, _LOPSIDED)]
    paths: list[Path] = []
    for name, res, res_overlay in zip(FIGURE_CONFIGS, results[::2], results[1::2]):
        paths.append(emit_csv(res, out_dir / f"{name}.csv"))
        paths.append(emit_svg_plot(res, out_dir / f"{name}.svg", overlay=res_overlay))
    return paths
