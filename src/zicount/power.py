"""Monte Carlo power study harness for the zero-inflation tests.

Simulates rejection rates of the Bayes test (posterior probability above the
uniform upper-alpha point) and of the one- and two-sided score and
likelihood ratio tests over a grid of (theta, p, n), with per-replication
seeding that makes results independent of evaluation order and worker
count.  Bundled reference rejection rates for the Poisson family allow
automated regression comparison.
"""

from __future__ import annotations

import io
import itertools
import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

# posterior_prob_positive is unused here; perfbench/tracing.py wraps this
# module's name
from .bayes import _DEFAULT_PRIOR, _SAMPLED_T, posterior_prob_positive
from .distributions import Family, ZipsModel, sample_values
from .errors import DegenerateSampleError, MissingCellError
from .frequentist import _alpha_cutoffs, _lr_statistic_stats, _score_statistic
from .limits import MIN_REPS, require_count, require_probability

MAX_REDRAWS = 100


class Method(Enum):
    SCORE_ONE = "score1"
    SCORE_TWO = "score2"
    LR_ONE = "lr1"
    LR_TWO = "lr2"
    BAYES = "bayes"


@dataclass(frozen=True)
class PowerConfig:
    """Grid specification for a power study."""

    thetas: tuple
    ps: tuple
    ns: tuple
    methods: tuple = (Method.SCORE_ONE, Method.BAYES, Method.LR_ONE)
    family: Family = Family.POISSON
    reps: int = 2000
    draws: int = 2000
    alpha: float = 0.05
    seed: int = 0

    def __post_init__(self):
        require_count("reps", self.reps, MIN_REPS)
        require_count("draws", self.draws, 1)
        require_probability("alpha", self.alpha)
        # the bound that null calibration applies to n
        for n in self.ns:
            require_count("ns entry", n, 2)
        # "score1" as its member: _run_combo finds members by equality
        object.__setattr__(self, "methods", tuple(map(Method, self.methods)))
        if not self.combos():
            raise ValueError("empty grid")
        # every cell's model and the seed, checked before any cell runs;
        # None would draw fresh entropy per cell, so no grid could be rerun
        for theta, p in itertools.product(self.thetas, self.ps):
            ZipsModel(self.family, p, theta)
        require_count("seed", self.seed, 0)

    def combos(self):
        return [(theta, p, n) for theta in self.thetas
                for p in self.ps for n in self.ns]


@dataclass(frozen=True)
class CellResult:
    power: float
    mc_se: float


@dataclass
class PowerGrid:
    """Rejection-rate estimates indexed by (method, theta, p, n)."""

    config: PowerConfig
    cells: dict
    redraws: dict = field(default_factory=dict)

    def to_csv(self) -> str:
        out = io.StringIO()
        out.write("method,theta,p,n,power,mc_se\n")
        for (method, theta, p, n), cell in sorted(
                self.cells.items(), key=lambda kv: (kv[0][1], kv[0][2], kv[0][3], kv[0][0].value)):
            out.write(f"{method.value},{theta},{p},{n},"
                      f"{cell.power:.6f},{cell.mc_se:.6f}\n")
        return out.getvalue()

    def format_table(self) -> str:
        lines = []
        methods = list(self.config.methods)
        header = "theta     n " + "".join(
            f" | p={p:<5g} " + " ".join(f"{m.value:>7}" for m in methods)
            for p in self.config.ps)
        lines.append(header)
        lines.append("-" * len(header))
        for theta in self.config.thetas:
            for n in self.config.ns:
                row = f"{theta:<8g} {n:>3}"
                for p in self.config.ps:
                    row += " |         " + " ".join(
                        f"{self.cells[(m, theta, p, n)].power:7.3f}"
                        for m in methods)
                lines.append(row)
        return "\n".join(lines)


# numpy's SeedSequence hash constants (``numpy/random/bit_generator.pyx``) and
# PCG64's 128-bit LCG multiplier
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
# replications whose generator states are hashed in one set of array operations
SEED_BLOCK = 1024


def _hash(value: np.ndarray, const: int, mult: int) -> tuple[np.ndarray, int]:
    """SeedSequence's ``hashmix`` (``mult = _MULT_A``) or ``generate_state``
    step (``_MULT_B``) of the uint32 array ``value`` under the hash constant
    ``const``: the hashed words and the next constant."""
    const_next = const * mult & 0xFFFFFFFF
    value = (value ^ const) * const_next
    return value ^ value >> 16, const_next


def _mix(pool: list, dst: int, word: np.ndarray, const: int) -> int:
    """SeedSequence's ``mix`` of the hashed ``word`` into ``pool[dst]``; the
    next hash constant."""
    hashed, const = _hash(word, const, _MULT_A)
    mixed = pool[dst] * _MIX_L - hashed * _MIX_R
    pool[dst] = mixed ^ mixed >> 16
    return const


def _pcg64_states(pool: list):
    """PCG64's ``(state, inc)`` when seeded from ``pool``: numpy's
    ``generate_state(4, np.uint64)`` (eight uint32 words, paired low word
    first) and the set-seq seeding step, two LCG steps in 128-bit ints."""
    const, words = _INIT_B, []
    for i in range(8):
        word, const = _hash(pool[i % 4], const, _MULT_B)
        words.append(word.astype(np.uint64))
    seed_hi, seed_lo, inc_hi, inc_lo = (
        (words[i] | words[i + 1] << 32).tolist() for i in range(0, 8, 2))
    mask = (1 << 128) - 1
    for s_hi, s_lo, i_hi, i_lo in zip(seed_hi, seed_lo, inc_hi, inc_lo):
        inc = ((i_hi << 64 | i_lo) << 1 | 1) & mask
        yield (((s_hi << 64 | s_lo) + inc) * _PCG_MULT + inc) & mask, inc


def _rep_rngs(seed, key: tuple, reps: int, child: int):
    """One reused ``Generator``, set for replication ``rep`` in turn to the
    state of ``default_rng(SeedSequence(seed, spawn_key=key + (rep, 0)))``
    for the data child 0, and of ``default_rng(int(SeedSequence(seed,
    spawn_key=key + (rep, 1)).generate_state(1)[0]))`` for the Bayes child 1.

    The states equal numpy's bit for bit and are hashed ``SEED_BLOCK`` rep
    numbers at a time over uint32 arrays.  ``SeedSequence(seed,
    spawn_key=key)`` is built once: it rejects a bad seed or key as the
    per-replication sequences would, and its pool is theirs before the words
    ``(rep, child)`` are mixed in, after ``4 * (max(4, seed words) + key
    words)`` hashes.
    """
    root = np.random.SeedSequence(seed, spawn_key=key)
    coerce = np.random.bit_generator._coerce_to_uint32_array
    prefix = max(len(coerce(root.entropy)), 4) + len(coerce(root.spawn_key))
    prefix_const = _INIT_A * pow(_MULT_A, 4 * prefix, 1 << 32) & 0xFFFFFFFF
    child_word = np.array([child], dtype=np.uint32)
    rng = np.random.default_rng(0)
    for start in range(0, reps, SEED_BLOCK):
        pool = list(root.pool.reshape(4, 1))
        rep_words = np.arange(start, min(start + SEED_BLOCK, reps), dtype=np.uint32)
        const = prefix_const
        for word in (rep_words, child_word):
            for dst in range(4):
                const = _mix(pool, dst, word, const)
        if child == 1:
            # default_rng(int) seeds a fresh SeedSequence from the word
            # generate_state(1)[0]: its pool hashes that word and three
            # zeros, then mixes every ordered pair of pool words
            word = _hash(pool[0], _INIT_B, _MULT_B)[0]
            pool, const = [word, *[np.zeros(1, np.uint32)] * 3], _INIT_A
            for dst in range(4):
                pool[dst], const = _hash(pool[dst], const, _MULT_A)
            for src, dst in itertools.permutations(range(4), 2):
                const = _mix(pool, dst, pool[src], const)
        for pcg_state, inc in _pcg64_states(pool):
            rng.bit_generator.state = {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0,
                                       "state": {"state": pcg_state, "inc": inc}}
            yield rng


def _replications(family: Family, p: float, theta: float, n: int, reps: int,
                  seed: int, key: tuple = ()):
    """Seeded ZIP(p, theta) samples of size n, one per replication.

    Replication ``rep`` draws its data from the child ``key + (rep, 0)`` of
    ``seed``, which is ``spawn(2)[0]`` of ``key + (rep,)``, and an all-zero
    sample is redrawn at most ``MAX_REDRAWS`` times.  At ``p = 0`` the draws
    are the base family's alone, with no uniforms for the zero mask.  Yields
    ``(values, n0, rep, redraws)`` to ``_replication_table``, which alone
    derives the Bayes generators ``_rep_rngs(seed, key, reps, 1)``.
    """
    model = ZipsModel(family, p, theta)
    for rep, rng in enumerate(_rep_rngs(seed, key, reps, 0)):
        for redraws in range(MAX_REDRAWS):
            values = sample_values(model, n, rng)
            n0 = n - int(np.count_nonzero(values))
            if n0 < n:
                break
        else:
            raise DegenerateSampleError(
                f"all-zero samples persisted for {MAX_REDRAWS} redraws at "
                f"theta={theta}, p={p}, n={n}")
        yield values, n0, rep, redraws


def _replication_table(family: Family, p: float, theta: float, n: int, reps: int,
                       seed: int, key: tuple = (), draws: int = 0):
    """Each replication of ``_replications`` as its ``(n0, s)`` and, when
    ``draws > 0``, its Monte Carlo T from ``draws`` draws on its Bayes child 1:
    the distinct rows, each replication's index into them, the T values
    (``None`` without draws) and the total redraw count.

    T is the paper's sampler run on the sufficient statistics: the family's
    kernel in ``bayes._SAMPLED_T``, called on ``(n, n0, s)`` under the default
    prior, which gives ``posterior_prob_positive``'s value bit for bit without
    its count table, standard error or effective sample size."""
    rows, t, redraws = np.empty((reps, 2), dtype=np.int64), None, 0
    if draws > 0:
        t, bayes = np.empty(reps), _rep_rngs(seed, key, reps, 1)
        sampled_t = _SAMPLED_T[family]
    for values, n0, rep, redrawn in _replications(family, p, theta, n, reps, seed, key):
        redraws += redrawn
        s = values.sum()
        rows[rep] = n0, s
        if t is not None:
            t[rep] = sampled_t(n, n0, s, _DEFAULT_PRIOR, draws, next(bayes))[0]
    distinct, inverse = np.unique(rows, axis=0, return_inverse=True)
    return distinct, inverse.reshape(-1), t, redraws


def _run_combo(config: PowerConfig, combo_index: int):
    """All replications for one (theta, p, n) grid point, with its redraw count."""
    theta, p, n = config.combos()[combo_index]
    family, methods = config.family, config.methods
    z_cut, chi_cut = _alpha_cutoffs(config.alpha)
    # (statistic, one-sided method, two-sided method); the statistics are
    # looked up here, at call time, so wrappers installed on this module apply
    tests = [(stat, one, two) for stat, one, two in (
        (_score_statistic, Method.SCORE_ONE, Method.SCORE_TWO),
        (_lr_statistic_stats, Method.LR_ONE, Method.LR_TWO))
        if one in methods or two in methods]
    rejections = {m: 0 for m in methods}
    draws = config.draws if Method.BAYES in methods else 0

    distinct, inverse, t, redraws = _replication_table(
        family, p, theta, n, config.reps, config.seed, (combo_index,), draws)
    if t is not None:
        rejections[Method.BAYES] = int(np.count_nonzero(t > 1.0 - config.alpha))
    # each rejecting distinct (n0, s) counted as often as it occurred
    counts = np.bincount(inverse)
    for statistic, one, two in tests:
        stat, sign = statistic(family, n, distinct[:, 0], distinct[:, 1])
        if one in methods:
            rejections[one] = int(counts[sign * np.sqrt(stat) > z_cut].sum())
        if two in methods:
            rejections[two] = int(counts[stat > chi_cut].sum())

    return combo_index, rejections, redraws


def run_power_study(config: PowerConfig, n_jobs: int = 1,
                    progress: bool = False) -> PowerGrid:
    """Estimate rejection rates over the configured grid.

    Deterministic for a given config seed regardless of ``n_jobs`` or cell
    evaluation order.
    """
    combos = config.combos()

    def finished():
        if n_jobs <= 1:
            for i in range(len(combos)):
                yield _run_combo(config, i)
            return
        from concurrent.futures import ProcessPoolExecutor, as_completed
        with ProcessPoolExecutor(max_workers=n_jobs) as pool:
            futures = [pool.submit(_run_combo, config, i) for i in range(len(combos))]
            for future in as_completed(futures):
                yield future.result()

    results = []
    for result in finished():
        results.append(result)
        if progress:
            theta, p, n = combos[result[0]]
            print(f"  done theta={theta} p={p} n={n} "
                  f"[{len(results)}/{len(combos)}]", flush=True)

    cells, redraws = {}, {}
    for combo_index, rejections, redrawn in sorted(results):
        theta, p, n = combos[combo_index]
        redraws[(theta, p, n)] = redrawn
        for method, count in rejections.items():
            power = count / config.reps
            mc_se = math.sqrt(power * (1.0 - power) / config.reps)
            cells[(method, theta, p, n)] = CellResult(power, mc_se)
    return PowerGrid(config=config, cells=cells, redraws=redraws)


# ---------------------------------------------------------------------------
# bundled reference rejection rates (Poisson family, alpha = 0.05)

def _build_reference(rows, methods):
    table = {}
    for (theta, n), cols in rows.items():
        for p, triple in cols.items():
            for method, value in zip(methods, triple):
                table[(method, theta, p, n)] = value
    return table


_ONE_SIDED_ROWS = {
    (0.5, 20): {0.00: (0.049, 0.045, 0.047), 0.10: (0.065, 0.068, 0.064),
                0.30: (0.111, 0.105, 0.103), 0.40: (0.144, 0.134, 0.118)},
    (0.5, 50): {0.00: (0.046, 0.043, 0.042), 0.10: (0.078, 0.076, 0.072),
                0.30: (0.180, 0.159, 0.154), 0.40: (0.251, 0.212, 0.209)},
    (0.5, 100): {0.00: (0.050, 0.047, 0.046), 0.10: (0.096, 0.090, 0.081),
                 0.30: (0.284, 0.262, 0.263), 0.40: (0.376, 0.363, 0.345)},
    (1.0, 20): {0.00: (0.040, 0.049, 0.036), 0.10: (0.083, 0.094, 0.082),
                0.30: (0.232, 0.247, 0.228), 0.40: (0.318, 0.323, 0.311)},
    (1.0, 50): {0.00: (0.040, 0.049, 0.040), 0.10: (0.123, 0.133, 0.126),
                0.30: (0.433, 0.434, 0.417), 0.40: (0.585, 0.582, 0.566)},
    (1.0, 100): {0.00: (0.045, 0.047, 0.048), 0.10: (0.181, 0.182, 0.188),
                 0.30: (0.670, 0.671, 0.680), 0.40: (0.840, 0.841, 0.843)},
    (1.5, 20): {0.00: (0.042, 0.053, 0.040), 0.10: (0.123, 0.143, 0.116),
                0.30: (0.389, 0.420, 0.387), 0.40: (0.544, 0.564, 0.537)},
    (1.5, 50): {0.00: (0.040, 0.047, 0.043), 0.10: (0.214, 0.225, 0.212),
                0.30: (0.730, 0.747, 0.739), 0.40: (0.884, 0.895, 0.888)},
    (1.5, 100): {0.00: (0.045, 0.046, 0.046), 0.10: (0.345, 0.311, 0.351),
                 0.30: (0.951, 0.936, 0.953), 0.40: (0.992, 0.991, 0.993)},
    (2.0, 20): {0.00: (0.046, 0.052, 0.035), 0.10: (0.194, 0.213, 0.175),
                0.30: (0.615, 0.649, 0.600), 0.40: (0.763, 0.801, 0.758)},
    (2.0, 50): {0.00: (0.053, 0.053, 0.045), 0.10: (0.345, 0.363, 0.346),
                0.30: (0.936, 0.930, 0.935), 0.40: (0.988, 0.988, 0.986)},
    (2.0, 100): {0.00: (0.044, 0.053, 0.042), 0.10: (0.577, 0.484, 0.557),
                 0.30: (0.998, 0.995, 0.998), 0.40: (1.000, 1.000, 1.000)},
}

_TWO_SIDED_ROWS = {
    (0.5, 20): {0.00: (0.045, 0.045, 0.061), 0.10: (0.043, 0.068, 0.052),
                0.30: (0.065, 0.105, 0.057), 0.40: (0.087, 0.134, 0.066)},
    (0.5, 50): {0.00: (0.046, 0.043, 0.050), 0.10: (0.055, 0.076, 0.056),
                0.30: (0.122, 0.159, 0.106), 0.40: (0.181, 0.212, 0.136)},
    (0.5, 100): {0.00: (0.051, 0.047, 0.051), 0.10: (0.066, 0.090, 0.058),
                 0.30: (0.185, 0.262, 0.174), 0.40: (0.277, 0.363, 0.248)},
    (1.0, 20): {0.00: (0.048, 0.049, 0.058), 0.10: (0.057, 0.094, 0.062),
                0.30: (0.142, 0.247, 0.143), 0.40: (0.203, 0.323, 0.198)},
    (1.0, 50): {0.00: (0.049, 0.049, 0.051), 0.10: (0.075, 0.133, 0.078),
                0.30: (0.303, 0.434, 0.296), 0.40: (0.443, 0.582, 0.430)},
    (1.0, 100): {0.00: (0.052, 0.047, 0.050), 0.10: (0.117, 0.182, 0.115),
                 0.30: (0.571, 0.671, 0.542), 0.40: (0.767, 0.841, 0.739)},
    (1.5, 20): {0.00: (0.047, 0.053, 0.057), 0.10: (0.081, 0.143, 0.074),
                0.30: (0.280, 0.420, 0.267), 0.40: (0.411, 0.564, 0.409)},
    (1.5, 50): {0.00: (0.051, 0.047, 0.051), 0.10: (0.140, 0.225, 0.131),
                0.30: (0.618, 0.747, 0.612), 0.40: (0.806, 0.895, 0.809)},
    (1.5, 100): {0.00: (0.049, 0.046, 0.054), 0.10: (0.244, 0.311, 0.236),
                 0.30: (0.913, 0.936, 0.908), 0.40: (0.983, 0.991, 0.982)},
    (2.0, 20): {0.00: (0.041, 0.052, 0.071), 0.10: (0.128, 0.213, 0.113),
                0.30: (0.501, 0.649, 0.471), 0.40: (0.670, 0.801, 0.644)},
    (2.0, 50): {0.00: (0.049, 0.053, 0.057), 0.10: (0.257, 0.363, 0.228),
                0.30: (0.890, 0.935, 0.880), 0.40: (0.975, 0.988, 0.973)},
    (2.0, 100): {0.00: (0.047, 0.053, 0.045), 0.10: (0.451, 0.484, 0.440),
                 0.30: (0.995, 0.995, 0.994), 0.40: (1.000, 1.000, 1.000)},
}

REFERENCE_POWER_ONE_SIDED = _build_reference(
    _ONE_SIDED_ROWS, (Method.SCORE_ONE, Method.BAYES, Method.LR_ONE))
REFERENCE_POWER_TWO_SIDED = _build_reference(
    _TWO_SIDED_ROWS, (Method.SCORE_TWO, Method.BAYES, Method.LR_TWO))


@dataclass(frozen=True)
class CellComparison:
    method: Method
    theta: float
    p: float
    n: int
    power: float
    reference: float
    deviation: float
    mc_se: float
    flagged: bool


@dataclass(frozen=True)
class ComparisonReport:
    rows: tuple
    tolerance: float

    @property
    def n_cells(self) -> int:
        return len(self.rows)

    @property
    def n_flagged(self) -> int:
        return sum(r.flagged for r in self.rows)

    @property
    def pass_fraction(self) -> float:
        return 1.0 - self.n_flagged / self.n_cells

    def summary(self) -> str:
        status = "PASS" if self.n_flagged == 0 else "FLAGGED"
        return (f"{status}: {self.n_cells - self.n_flagged}/{self.n_cells} cells "
                f"within tolerance {self.tolerance}")


def compare_tables(grid: PowerGrid, reference: dict,
                   tolerance: float = 0.03) -> ComparisonReport:
    """Per-cell comparison of a computed grid against reference powers.

    A cell is flagged when the absolute deviation exceeds
    ``max(tolerance, 4 * mc_se)``.  Missing cells are an error, and so is
    an empty reference, which would leave nothing to pass.
    """
    if not reference:
        raise ValueError("no reference cells to compare against")
    rows = []
    for key, ref in sorted(reference.items(),
                           key=lambda kv: (kv[0][1], kv[0][2], kv[0][3], kv[0][0].value)):
        if key not in grid.cells:
            method, theta, p, n = key
            raise MissingCellError(
                f"grid lacks cell method={method.value} theta={theta} p={p} n={n}")
        cell = grid.cells[key]
        deviation = cell.power - ref
        flagged = abs(deviation) > max(tolerance, 4.0 * cell.mc_se)
        rows.append(CellComparison(*key, power=cell.power, reference=ref,
                                   deviation=deviation, mc_se=cell.mc_se,
                                   flagged=flagged))
    return ComparisonReport(rows=tuple(rows), tolerance=tolerance)
