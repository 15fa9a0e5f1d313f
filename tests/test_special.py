"""Accuracy of ``zicount._special``, the numpy special functions of the
computing commands, against SciPy and against 40-digit references.

The references are literals, computed with mpmath 1.3.0 at 50 digits: the
incomplete beta by its Lentz continued fraction in that arithmetic, the
normal and chi-square(1) tails from ``mpmath.ncdf`` and ``mpmath.erfc``, the
quantiles from ``mpmath.erfinv``, and ``gammainc(2, t)`` from
``mpmath.gammainc``.  Each is taken at the given double exactly.

A relative tolerance on ``I_x(a, b)`` scales with its condition number
``kappa = x I'(x) / I(x)``, with ``|log I|`` and with ``(1 - I) / I``: a
computation in doubles rounds ``x - mu`` and the log of the prefactor, and
above the continued fraction's range takes I as one less the other tail, so
even a correct one is off by a few units in the last place times each.
"""

import math

import numpy as np
import pytest
from scipy import special

from zicount import _special

HALF_INTEGERS = [0.5, 1.5, 2.5, 10.5, 100.5, 1000.5, 10000.5, 100000.5, 1000000.5]
INTEGERS = [1.0, 2.0, 3.0, 10.0, 100.0, 1000.0, 10000.0, 100000.0, 1000000.0]
GENERAL = [0.63, 0.97, 3.7, 27.3, 412.9, 5555.71, 61234.7, 987654.3]
SHAPES = np.array(HALF_INTEGERS + INTEGERS + GENERAL)
LEVELS = np.array([1e-300, 1e-100, 1e-30, 1e-17, 1e-8, 1e-3, 0.1, 0.5, 0.9, 0.999,
                   1.0 - 1e-8, 1.0 - 1e-16])

# (a, b, x, I_x(a, b)): the grid points where this module and SciPy disagree
# most, the first 16 where SciPy's value is below 1e-280 and the rest above
BETAINC_REFERENCES = [
    (1000.0, 10.0, 0.4798363170038048, "1.003939403070848741936072556027349335934e-300"),
    (987654.3, 10.5, 0.9992514351611633, "1.00221037233656613797232487708289823375e-300"),
    (1000000.5, 10.5, 0.9992606736857497, "1.002268907075878961931698467174290326709e-300"),
    (1000000.0, 10.5, 0.9992606733163512, "1.002269032038397557131394705418163965551e-300"),
    (100000.5, 10.5, 0.9926316004015616, "9.991011807617053067984217957934061022198e-301"),
    (100000.0, 10.5, 0.9926315636985038, "9.991012930781560510968413017617956827375e-301"),
    (61234.7, 10.5, 0.9879953569677835, "9.999625511973990710225171286865620432703e-301"),
    (10000.0, 10.5, 0.928740613639794, "9.990961704772499622946225139293579132432e-301"),
    (10000.5, 10.5, 0.9287440464250188, "9.991138685042870192924998536235235306848e-301"),
    (5555.71, 10.5, 0.8754537755769993, "9.999838173785663381448922952201058708291e-301"),
    (1000.0, 10.5, 0.4788703640834751, "9.999952584879204741818690186103429615827e-301"),
    (1000.5, 10.5, 0.4790458785864011, "9.999921749833076934965518561135151364498e-301"),
    (100000.5, 10.0, 0.9926533449370131, "1.000000234782943419648913751351938488921e-300"),
    (1000000.5, 10.0, 0.9992628611945931, "9.999998079558612010540209986019236095587e-301"),
    (10000.5, 10.0, 0.9289458915552202, "9.999998159841513292922084485517309599662e-301"),
    (61234.7, 10.0, 0.9880306677450214, "1.000000132213909022104089008509891927147e-300"),
    (2.0, 1000000.0, 3.889710660009982e-06, "8.999999999955989424554900640226306327695e-1"),
    (987654.3, 1000000.5, 0.4893507013363613, "9.99999999997318063753394435568703275709e-101"),
    (100000.5, 1000000.0, 0.08519041979913042, "9.999999999993146706959561263295831989046e-101"),
    (987654.3, 100000.5, 0.902051827865939, "1.000000000001051988645369517115635459379e-100"),
    (10.0, 1000000.0, 1.4205825461854893e-05, "8.999999999969496399950154968926601659708e-1"),
    (1000000.0, 987654.3, 0.4990398919006981, "9.999999999983891712545381026280474043234e-31"),
    (1000000.0, 1000000.5, 0.4969968926907463, "9.999999999989658763679131435346111337214e-18"),
    (1000000.5, 987654.3, 0.5011154404117055, "1.000000000000550694961134877111029552231e-8"),
    (1000000.5, 1000000.0, 0.4924792488048785, "9.999999999999318152825385846455560415992e-101"),
    (987654.3, 987654.3, 0.4924322686418181, "9.999999999998911753162443919830636484282e-101"),
    (61234.7, 1000000.5, 0.053011235889141854, "1.000000000037814783849022905306315966631e-100"),
    (1000000.0, 100000.5, 0.9031475336808876, "9.999999999994629835089244805826852619288e-101"),
    (0.5, 1.5, 2.225073858507201e-308, "1.89925087141461411168331411418815161345e-154"),
    (1.5, 10000.0, 1.2089637420483802e-204, "9.999999999999085789167542957576613063194e-301"),
    (10.5, 27.3, 3.9677376693732235e-30, "1.000000000000002166837954471833693121624e-300"),
    (1000.5, 1.0, 0.5013602809240563, "9.999999999999582661241198403562583519794e-301"),
    (10000.5, 5555.71, 0.49532065829387395, "1.000000000001654094333571647028212967113e-300"),
]

# (a, x, I_x(a, a)) at a tenth of 1 / sqrt(a) below the centre; SciPy's own
# value at 1e12 is 1.5e-4 off
LARGE_SHAPE_REFERENCES = [
    (20000000.5, 0.4999776393205045, "3.886487060180167950908001809928294672156e-1"),
    (100000000.5, 0.499990000000025, "3.886487055197130351256434665069715721532e-1"),
    (10000000000.0, 0.499999, "3.88648705398908183324442479100841518542e-1"),
    (1000000000000.0, 0.4999999, "3.886487053916557388571518995969167497048e-1"),
]

NDTR = [
    (-37.0, "5.725571222524576822683192548273201656433e-300"),
    (-20.0, "2.753624118606233695075622780857465332807e-89"),
    (-8.5, "9.479534822203318354151050467847551492826e-18"),
    (-3.0, "1.349898031630094526651814767594977377829e-3"),
    (-1.0, "1.586552539314570514147674543679620775221e-1"),
    (-0.3, "3.820885778110473669277263772362232612163e-1"),
    (0.0, "0.5"),
    (0.5, "6.914624612740131036377046106083377398836e-1"),
    (2.0, "9.772498680518207927997173628334665625282e-1"),
    (7.0, "9.999999999987201874561141649956163763092e-1"),
]
CHDTRC = [
    (1e-12, "9.999992021154391972676329043083323750839e-1"),
    (0.5, "4.795001221869534623172533461080354712635e-1"),
    (2.7, "1.003482464622907303654073477185157620524e-1"),
    (15.34, "8.979495451077832902021147724463531659533e-5"),
    (80.0, "3.744097384202898763563804495151401124564e-19"),
    (700.0, "2.990226975124620336911911626697340555697e-154"),
    (1400.0, "2.101014516264217495037899477613742924881e-306"),
]
NDTRI = [
    (1e-300, "-37.04709629936119923654704250489022234364"),
    (1e-17, "-8.493793224109598066134015528395288947932"),
    (1e-06, "-4.753424308822898957338863999953572024552"),
    (0.025, "-1.959963984540054211779584194227173967956"),
    (0.05, "-1.644853626951472687952128076463329893215"),
    (0.9, "1.281551565544600593487448288516844671429"),
    (0.975, "1.959963984540053855604430649826643177289"),
    (0.999999999999, "7.034486910047835205692400568554849465713"),
]
# alpha, then the normal quantile at 1 - alpha and the chi-square(1) one
CUTOFFS = [
    (0.2, "8.416212335729141655224906257721661593167e-1",
     "1.642374415149816305701852983768254203598"),
    (0.05, "1.644853626951472687952128076463329893215",
     "3.841458820694125865282645686022711358044"),
    (0.01, "2.326347874040841093075096391633036854752",
     "6.634896601021215101354111221707359001794"),
    (1e-06, "4.753424308822898957338863999953572024552",
     "2.392812697693482893571253603617476367578e+1"),
    (1e-12, "7.034483825301131932614176004484282849855",
     "5.084412791181815558513353663342867233017e+1"),
    (1e-17, "8.493793224109598066134015528395288947932",
     "7.351251703073711050976907871231207841977e+1"),
]
GAMMAINC2 = [
    (1e-08, "4.999999966666667000892272542361990418245e-17"),
    (0.01, "4.966791334026589241591827495301681425544e-5"),
    (0.5, "9.020401043104986459430069751322931983712e-2"),
    (0.999, "2.638732382772878201749826947871458098101e-1"),
    (1.0, "2.642411176571153568089524596770782651084e-1"),
    (3.0, "8.008517265285442280826303373997528934732e-1"),
    (40.0, "9.999999999999998258174755330448511915014e-1"),
]


def _grid():
    """Every shape pair at SciPy's quantile of every level, where it lies in (0,
    1); where the fraction runs on ``I_y(b, a)`` below x = 1/2, at ``1 - (1 -
    x)``, whose complement is exact, since the module takes y there."""
    a, b, q = (v.ravel() for v in np.meshgrid(SHAPES, SHAPES, LEVELS, indexing="ij"))
    x = special.betaincinv(a, b, q)
    keep = (x > 0.0) & (x < 1.0)
    a, b, q, x = a[keep], b[keep], q[keep], x[keep]
    x = np.where((x * (a + b + 2.0) > a + 1.0) & (x < 0.5), 1.0 - (1.0 - x), x)
    return a, b, q, x


def _betainc(a, b, x):
    """``_special.betainc`` with ``y = 1 - x`` and the constant."""
    return _special.betainc(a, b, x, 1.0 - np.asarray(x), _special.log_beta_constant(a, b))


def _tolerance(a, b, x, value):
    """``1e-15 (|log I| + kappa) + 3.2e-15`` relative, kappa from the
    module's own log density, plus ``1.6e-15 (1 - I) / I`` above the
    fraction's range, ``x > (a + 1) / (a + b + 2)``."""
    a, b, x = (np.asarray(v, dtype=float) for v in (a, b, x))
    log_dens = (_special.log_beta_pdf(x, 1.0 - x, a, b, _special.log_beta_constant(a, b))
                + np.log(x) + np.log1p(-x))
    kappa = np.exp(log_dens - np.log(value))
    above = np.where(x * (a + b + 2.0) > a + 1.0, (1.0 - value) / value, 0.0)
    return 1e-15 * (np.abs(np.log(value)) + kappa) + 4e-16 * (8.0 + 4.0 * above)


def test_betainc_matches_scipy_on_the_grid():
    # shapes from 0.5 to 1e6, half-integer, integer and general, at x from the
    # 1e-300 to the 1 - 1e-16 quantile; below 1e-280 SciPy's own value loses
    # digits (1e-3 relative at 1e-300), and BETAINC_REFERENCES checks those
    a, b, _, x = _grid()
    ours, theirs = _betainc(a, b, x), special.betainc(a, b, x)
    keep = theirs > 1e-280
    rel = np.abs(ours - theirs)[keep] / theirs[keep]
    assert keep.sum() > 6000
    # the largest gaps are SciPy's own, up to 6.1e-12 (BETAINC_REFERENCES)
    assert rel.max() < 1e-11
    assert np.quantile(rel, 0.99) < 1e-12
    assert np.median(rel) < 5e-15


@pytest.mark.parametrize("a, b, x, value", BETAINC_REFERENCES, ids=str)
def test_betainc_matches_40_digit_references(a, b, x, value):
    value = float(value)
    got = float(_betainc(a, b, x))
    assert got == pytest.approx(value, rel=float(_tolerance(a, b, x, value)), abs=0.0)


def test_betainc_ends_and_broadcasting():
    # I is 0 at x = 0 and 1 at x = 1, and broadcasts over its arguments
    constant = _special.log_beta_constant(2.5, 3.5)
    assert _special.betainc(2.5, 3.5, 0.0, 1.0, constant) == 0.0
    assert _special.betainc(2.5, 3.5, 1.0, 0.0, constant) == 1.0
    assert np.shape(_betainc(2.5, np.array([3.5, 4.5]), np.array([[0.1], [0.2]]))) == (2, 2)


@pytest.mark.parametrize("a, x, value", LARGE_SHAPE_REFERENCES, ids=str)
def test_betainc_converges_near_the_centre_of_large_shapes(a, x, value):
    # at x = (a + 1) / (a + b + 2) the fraction is slowest, about 6 a**(1/3)
    # pairs of terms (54 000 at 1e12); there I_{1/2}(a, a) is 1/2, and at 0.28
    # sd below the value given; each within a few units in x's last place
    # times the density there, about 2 sqrt(a / pi)
    assert abs(_betainc(a, a, 0.5) - 0.5) <= 4e-16 * math.sqrt(a)
    assert abs(_betainc(a, a, x) - float(value)) <= 4e-16 * math.sqrt(a)


def test_beta_quantile_round_trip():
    # the inverse returns x and 1 - x, each to its own precision; the smaller
    # tail there, I_x(a, b) or I_{1-x}(b, a), is the level within the forward
    # tolerance
    a, b, q = (v.ravel() for v in np.meshgrid(SHAPES, SHAPES, LEVELS, indexing="ij"))
    x, y = _special.beta_quantile(a, b, q)
    assert np.all((x >= 0.0) & (x <= 1.0) & (y >= 0.0) & (y <= 1.0))
    np.testing.assert_allclose(x + y, 1.0, rtol=2.3e-16, atol=0.0)
    # a subnormal x or 1 - x keeps fewer digits than the level asks
    tiny = np.finfo(float).tiny
    keep = (x > tiny) & (y > tiny)
    a, b, q, x, y = a[keep], b[keep], q[keep], x[keep], y[keep]
    low = q <= 0.5
    a, b, x, y = (np.where(low, u, v) for u, v in ((a, b), (b, a), (x, y), (y, x)))
    level = np.where(low, q, 1.0 - q)
    tail = _special.betainc(a, b, x, y, _special.log_beta_constant(a, b))
    assert np.all(np.abs(tail - level) <= _tolerance(a, b, x, level) * level)


def test_beta_quantile_complement_keeps_a_small_tail():
    # 1 - I_x(a, b) = 1e-17, where 1 - 1e-17 rounds to one: 1 - x is the
    # 1e-17 quantile of Beta(b, a), to its own precision
    a, b = np.array([2.5, 40.5, 1000.5]), np.array([3.5, 20.5, 3000.5])
    x, y = _special.beta_quantile(a, b, 1e-17, complement=True)
    assert np.array_equal(y, _special.beta_quantile(b, a, 1e-17)[0])
    tail = _special.betainc(b, a, y, x, _special.log_beta_constant(b, a))
    assert np.all(np.abs(tail / 1e-17 - 1.0) <= _tolerance(b, a, y, 1e-17))
    np.testing.assert_allclose(special.betainc(b, a, y), 1e-17, rtol=1e-13)
    np.testing.assert_allclose(x, special.betainccinv(a, b, 1e-17), rtol=1e-15)


def test_beta_quantile_matches_scipy():
    # the window's levels and the cutoffs' at every shape pair; SciPy's own
    # inverse is the looser of the two, its I up to 2.5e-10 relative off the
    # level, at (1000, 987654.3, 0.95) against 40-digit values
    a, b, q = (v.ravel() for v in np.meshgrid(SHAPES, SHAPES, [1e-17, 0.05, 0.5, 0.95],
                                              indexing="ij"))
    rel = np.abs(_special.beta_quantile(a, b, q)[0] / special.betaincinv(a, b, q) - 1.0)
    assert rel.max() < 1e-10
    assert np.median(rel) < 1e-15


@pytest.mark.parametrize("x, value", NDTR, ids=str)
def test_ndtr_matches_40_digit_references(x, value):
    # math.erfc at the rounded -x / sqrt 2 costs about 2 x**2 units in the
    # last place
    assert _special.ndtr(x) == pytest.approx(float(value), rel=2e-16 * (1.0 + x * x), abs=0.0)


@pytest.mark.parametrize("x, value", CHDTRC, ids=str)
def test_chdtrc_matches_40_digit_references(x, value):
    # likewise at the rounded sqrt(x / 2), about x units in the last place
    assert _special.chdtrc(x) == pytest.approx(float(value), rel=2e-16 * (1.0 + x / 2.0),
                                               abs=0.0)


@pytest.mark.parametrize("p, value", NDTRI, ids=str)
def test_ndtri_matches_40_digit_references(p, value):
    assert _special.ndtri(p) == pytest.approx(float(value), rel=1e-15, abs=0.0)


@pytest.mark.parametrize("alpha, z, chi", CUTOFFS, ids=str)
def test_cutoffs_match_40_digit_references_and_scipy(alpha, z, chi):
    from zicount.frequentist import _alpha_cutoffs

    z_cut, chi_cut = _alpha_cutoffs(alpha)
    assert z_cut == pytest.approx(float(z), rel=1e-15, abs=0.0)
    assert chi_cut == pytest.approx(float(chi), rel=1e-15, abs=0.0)
    # from alpha itself, as SciPy's quantiles at alpha; 1 - alpha would round
    # off the last digits of a small alpha, and to one below 1.1e-16
    assert z_cut == pytest.approx(float(-special.ndtri(alpha)), rel=1e-15, abs=0.0)
    assert chi_cut == pytest.approx(float(special.ndtri(alpha / 2.0) ** 2), rel=1e-15, abs=0.0)


def test_p_values_match_scipy():
    # within 1e-15 relative where SciPy is exact, near the centre; further out
    # SciPy's erfc-based tails drift (tests/test_frequentist.py)
    for x in np.linspace(-1.0, 1.0, 201):
        assert _special.ndtr(float(x)) == pytest.approx(float(special.ndtr(x)), rel=1e-15)
    assert _special.ndtr(math.inf) == 1.0 and _special.ndtr(-math.inf) == 0.0
    assert _special.chdtrc(0.0) == 1.0 and _special.chdtrc(math.inf) == 0.0


@pytest.mark.parametrize("t, value", GAMMAINC2, ids=str)
def test_gammainc2_matches_40_digit_references(t, value):
    assert float(_special.gammainc2(t)) == pytest.approx(float(value), rel=2e-15, abs=0.0)


def test_gammainc2_matches_scipy():
    # from 1e-10 on; below, SciPy's value drifts (2.4e-14 relative at 1e-150)
    t = np.concatenate([10.0 ** np.linspace(-10, 3, 400), np.linspace(0.9, 1.1, 41)])
    np.testing.assert_allclose(_special.gammainc2(t), special.gammainc(2.0, t), rtol=1e-14)
    assert np.shape(_special.gammainc2(0.5)) == ()


def test_lgamma_and_stirling_rest():
    z = np.concatenate([np.arange(1, 40) / 2.0, 10.0 ** np.linspace(-3, 6, 60)])
    reference = special.gammaln(z)
    assert np.all(np.abs(_special.lgamma(z) - reference) <= 2e-15 * (1.0 + np.abs(reference)))
    # below 10 from lgamma, above by Stirling's series: both within 1e-16 of
    # log Gamma less its Stirling terms at the switch
    rest = _special.stirling_rest(np.array([9.999999999, 10.0, 10.5, 1e6]))
    exact = special.gammaln([9.999999999, 10.0, 10.5]) - (
        (np.array([9.999999999, 10.0, 10.5]) - 0.5) * np.log([9.999999999, 10.0, 10.5])
        - np.array([9.999999999, 10.0, 10.5]) + 0.5 * math.log(2.0 * math.pi))
    np.testing.assert_allclose(rest[:3], exact, rtol=0.0, atol=2e-15)
    assert rest[3] == pytest.approx(1.0 / 12e6, rel=1e-12)
