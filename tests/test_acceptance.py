"""Acceptance suite: one test per criterion, each printing a pass/fail line
with its runtime (run with -s to see them).  Criterion 9 is expected-slow;
enable it with HOLOZETA_SLOW=1.  For criterion 5 at k = -1 the quoted
expected generator carries a sign typo (z^2 dz - z cannot annihilate the
coefficient, z^2 dz + z does); the literal assertion is kept and marked
xfail, and the corrected ideal is asserted exactly alongside.
"""
import contextlib
import time

import mpmath
import pytest

from conftest import difference_member, run_slow, same_ideal

from holozeta import (
    QQ,
    DifferenceOperator,
    IdealPresentation,
    LaurentRequest,
    PhiSpec,
    UPoly,
    WeylOperator,
    ann_fs,
    ann_laurent,
    bfunction,
    difference_gcrd,
    numeric_zeta,
    residual_check,
    zeta_difference,
)

W = WeylOperator


@contextlib.contextmanager
def criterion(num, label, limit=None):
    """Print one pass/fail line per criterion, with the elapsed time."""
    t0 = time.time()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num}: FAIL  {label}  ({time.time() - t0:.1f}s)")
        raise
    elapsed = time.time() - t0
    cap = f" <= {limit}s" if limit is not None else " (expected-slow, no budget)"
    print(f"ACCEPTANCE {num}: PASS  {label}  ({elapsed:.1f}s{cap})")
    if limit is not None:
        assert elapsed <= limit, f"criterion {num} exceeded its {limit}s budget"


def test_criterion_01_bfunction_cusp(inst_cusp):
    with criterion(1, "b-function cusp", 30):
        b = bfunction(ann_fs(inst_cusp), inst_cusp.f)
        assert b.poly == UPoly.from_roots([QQ(-1), QQ(-5, 6), QQ(-7, 6)]).monic()
        assert b.factored_str() == "(s+1)(6s+5)(6s+7)"


def test_criterion_02_bfunction_gaussian_weight(inst_cusp_gauss):
    with criterion(2, "b-function cusp with gaussian weight", 60):
        b = bfunction(ann_fs(inst_cusp_gauss), inst_cusp_gauss.f)
        assert b.poly == UPoly.from_roots([QQ(-1), QQ(-5, 6), QQ(-7, 6)]).monic()
        assert b.factored_str() == "(s+1)(6s+5)(6s+7)"


def test_criterion_03_bfunction_three_variables(inst_ex5):
    with criterion(3, "b-function x^3 - y^2 z^2", 600):
        b = bfunction(ann_fs(inst_ex5), inst_ex5.f)
        expected = UPoly.from_roots(
            [QQ(-1), QQ(-4, 3), QQ(-5, 3),
             QQ(-5, 6), QQ(-5, 6), QQ(-7, 6), QQ(-7, 6)]).monic()
        assert b.poly == expected
        assert b.factored_str() == "(s+1)(3s+4)(3s+5)(6s+5)^2(6s+7)^2"


def test_criterion_04_laurent_residue_ideals(inst_cusp):
    sig = inst_cusp.sig
    x, y, dx, dy = (W.gen(sig, n) for n in ("x", "y", "dx", "dy"))
    f = inst_cusp.f
    expected = {
        QQ(-1): [2 * x * dx + 3 * y * dy + 6, 2 * y * dx + 3 * x * x * dy, f],
        QQ(-5, 6): [x, y],
        QQ(-7, 6): [x * x, x * dx + 2, y],
    }
    for lam, gens in expected.items():
        with criterion(4, f"laurent residue ideal at {lam}", 120):
            system = ann_laurent(LaurentRequest(inst_cusp, lam, -1))
            assert same_ideal(system.ann_w, IdealPresentation(sig, gens)), str(lam)


def test_criterion_05_ex5_laurent_k_minus_2(inst_ex5):
    with criterion(5, "Ex5 k=-2 gives <x, y, z>", 600):
        sig = inst_ex5.sig
        x, y, z = (W.gen(sig, n) for n in ("x", "y", "z"))
        system = ann_laurent(LaurentRequest(inst_ex5, QQ(-5, 6), -2))
        assert system.l == 2
        assert same_ideal(system.ann_w, IdealPresentation(sig, [x, y, z]))


def _ex5_k_minus_1(inst_ex5):
    return ann_laurent(LaurentRequest(inst_ex5, QQ(-5, 6), -1))


@pytest.mark.xfail(
    reason="sign typo in the quoted expected value: z^2 dz - z does not "
           "annihilate phi_{-1}, which contains d(x) d(y) Pf|z|^-1 and is "
           "killed by z^2 dz + z only",
    strict=True)
def test_criterion_05_ex5_laurent_k_minus_1_literal(inst_ex5):
    sig = inst_ex5.sig
    x, y, z, dy, dz = (W.gen(sig, n) for n in ("x", "y", "z", "dy", "dz"))
    with criterion(5, "Ex5 k=-1 (as quoted, sign typo)", 600):
        system = _ex5_k_minus_1(inst_ex5)
        literal = IdealPresentation(
            sig, [x, y * dy - z * dz, y * z, z * z * dz - z])
        assert same_ideal(system.ann_w, literal)


def test_criterion_05_ex5_laurent_k_minus_1_corrected(inst_ex5):
    sig = inst_ex5.sig
    x, y, z, dy, dz = (W.gen(sig, n) for n in ("x", "y", "z", "dy", "dz"))
    with criterion(5, "Ex5 k=-1 (corrected sign)", 600):
        system = _ex5_k_minus_1(inst_ex5)
        corrected = IdealPresentation(
            sig, [x, y * dy - z * dz, y * z, z * z * dz + z])
        assert same_ideal(system.ann_w, corrected)


def test_criterion_06_gamma_difference(inst_gamma):
    with criterion(6, "Gamma: E - (s+1)", 10):
        ops = zeta_difference(inst_gamma)
        target = DifferenceOperator({1: UPoly.one(), 0: UPoly((-1, -1))})
        assert difference_member(target, ops)
        assert any(op == target.normalized() for op in ops)


def test_criterion_07_ex3_difference(inst_ex3):
    with criterion(7, "Ex3: E^2 - (s+2)E - 1, two-sided", 60):
        ops = zeta_difference(inst_ex3)
        target = DifferenceOperator({2: UPoly.one(), 1: UPoly((-2, -1)),
                                     0: UPoly((-1,))})
        assert difference_member(target, ops)
        for op in ops:
            assert difference_member(op, [target])


def test_criterion_08_ex2_difference(inst_cusp_gauss):
    with criterion(8, "Ex2: order-4 operator membership", 600):
        ops = zeta_difference(inst_cusp_gauss)
        c4 = UPoly((32,))
        c3 = UPoly((208, 64))                                   # 16(4s+13)
        c2 = (UPoly((3, 1)) * UPoly((211, 154, 27))) * (-4)
        c1 = (UPoly((2, 1)) * UPoly((3, 1)) * UPoly((173, 162, 36))) * (-6)
        c0 = (UPoly((1, 1)) * UPoly((2, 1)) * UPoly((3, 1))
              * UPoly((5, 6)) * UPoly((13, 6))) * (-3)
        reference = DifferenceOperator({4: c4, 3: c3, 2: c2, 1: c1, 0: c0})
        assert difference_member(reference, ops)
        # -7/6 is not a pole of Z: the trailing coefficient's roots exclude it
        g = difference_gcrd(ops)
        trailing = g.coeffs[0]
        assert trailing.eval(QQ(-7, 6)) != 0
        roots, _ = trailing.rational_roots()
        assert QQ(-7, 6) not in [r for r, _m in roots]


def _ex4_reference_operator():
    """The known order-11 annihilator of the Ex4 zeta function, as factored
    coefficient data (constant, factors); each factor is a coefficient tuple."""
    data = {
        0: (-351964100358538255779166198149096982482826888998478338475636932,
            [(i, 1) for i in range(1, 10)]),
        1: (-1417176, [(i, 1) for i in range(2, 10)] + [(
            12386089021939975712325223235974112206314908088331654352998,
            21051557945785674173982624244061005661270258004986867220465,
            10927662065809527718704884021857741896027298737724211313858,
            1986847648329005039764524367610498526550417952313492966156)]),
        2: (-118098, [(i, 1) for i in range(3, 10)] + [(
            5709999168812021569449506516589240585959247262861168630496789,
            18270949224027184934460607304856457199703917799587324339834604,
            21059353010771781692821318286627626528089372385090546445983716,
            12222919857834806875827904791658918170185958103128107332670160,
            3916402219301295528637688174130272137811043494985811542877464,
            667580809838545693360880187517127504920940431977333636628416,
            47684343559896120954348584822651964637210030855523831187744)]),
        3: (-243, [(i, 1) for i in range(4, 10)] + [(
            -81209162687771723928989269068805525222458747439249172861636227469,
            -127900542026041785262963858914350201743651176823387992897732610902,
            -66079392178798741048984927201650702569723952225288775435125481920,
            -7525795041000621682605028001031431019424750241471879212368821904,
            5053650157206113862420889239020680099750334929901364608085694608,
            2112072105082024802870146091358593821341014994251000868149360640,
            318371770273890061391846320623614791999361598952589325943733760,
            17697333547953586682340006661876755914988015315429669667569024)]),
        4: (-162, [(i, 1) for i in range(5, 10)] + [(
            7037689630032496377473904121358740902291246988472498820893545014477,
            9827903321715256276041626797435767114124174584323072442189360227605,
            5851815681166312693984840355296237589774156105383780158719634577680,
            1925080373358586970261673197619719525067618769450184114405244143088,
            377587116932506912413410003686286036736727715846471871522705604446,
            44095855369077481376294079530754416358006855313843942279462543776,
            2832203976414984928485248055480413265452883970560129502838926416,
            76847493927680818795929404284121700961890258993498531788975424)]),
        5: (-54, [(i, 1) for i in range(6, 10)] + [(
            515949116574472679710829110239621580511168445984613692086999253096,
            1891491810922892925596953694735004184442042570382135601612566496039,
            1483968691748042495367291924703276196732154257294446199014693417221,
            528153317515080720748137157178852044144934936050605388519111460982,
            101144152422547452265684137878794716408559355659837892322283980078,
            10753342805283210546849212879293943783168908236012712881583068432,
            593587206919856213038538972053935037423448539823009407662535224,
            13106352628107140208066766222220352879843122292290552208589200)]),
        6: (18, [(i, 1) for i in range(7, 10)] + [(
            9113647829676580867809414607873656197777256511841857099485044426632,
            16787326000865496975755052495413963523267646423344283047563982809340,
            10842906164981128175465469114745688456814775531608763783821383327013,
            3618706338996782526533844192372614666728827535127204764453499209722,
            711806866541278772709891758615948901765841461095939749258621853283,
            86136334061589448148871062481253402600625194744623968368696465296,
            6324042946261871718090429400272997651608892175403745843435796760,
            258899853590658514990743952826511958790133924183188663938342128,
            4536828996951050273675699328159025006464792694605551443751808)]),
        7: (-3, [(i, 1) for i in range(8, 10)] + [(
            99110609948002967469929516258519277281958877437015313323980745176688,
            83163250821823424967551687324830208835739288382153865030219734137010,
            30527804752272907571691211881597471337591879325750056961840947071849,
            6430032766697512439437923091014756100917725919179606860930893761292,
            854952425309383400232817473550815500438769223816919300049660256011,
            74030123120009985235550593509158281954394427901615164687673330746,
            4110316301029047925741529193996349455452227461781407038334818640,
            134756910293944926360248305954362525911185139611875733392607872,
            2004964828172946988936154107281616228791615103995843077349504)]),
        8: (-2, [(9, 1)] + [(
            9803437443075006743008705780243892713713722462590879050128750283036,
            7242378700814754400817575879170751558222961517728721605068043658313,
            2290530579580341417417197528295007884131194510058820567469085051607,
            402704784293267915461088891639632823180617481981756765153987656863,
            42596703729312045862381726360089715636181151412794450534846955821,
            2717690102549503776677509445821633828599929314059984255621160761,
            97111493689645274129425412877367555140046754903744410282804536,
            1503723621129710241702115580461212171593711327996882308012128)]),
        9: (-1, [(
            275179407457727140762705822107812793690076203159800054485367619811,
            175709142862946967643537516196203367413107171559636259406339320752,
            46514731973276075321887874995188477816012639530354015388257281962,
            6538729441362566008520311126227329894923831744919854618411982244,
            515135771268096123215436793766978637206893389250989380851826472,
            21581218636583804394798881015878508018243079244399699790914800,
            375930905282427560425528895115303042898427831999220577003032)]),
        10: (54, [(
            529528740700944132335603254535110777529589924014551729622621,
            158057615382484161266695582359568012803267786530612635801164,
            15651850677180784726348672943504081880570116766923805459228,
            515680254159708587689340048169139976541053267488642766808)]),
        11: (-515680254159708587689340048169139976541053267488642766808, []),
    }
    coeffs = {}
    for k, (const, factors) in data.items():
        poly = UPoly((const,))
        for fac in factors:
            if isinstance(fac, tuple) and len(fac) == 2 and fac[1] == 1:
                poly = poly * UPoly((fac[0], 1))      # (s + root)
            else:
                poly = poly * UPoly(fac)
        coeffs[k] = poly
    return DifferenceOperator(coeffs)


@pytest.mark.slow
@pytest.mark.skipif(not run_slow(), reason="expected-slow, gated to keep the default "
                    "suite fast (HOLOZETA_SLOW=1 to run); the full pipeline took 85-97 s "
                    "on a 2-core VM with Python 3.11 and no gmpy2, inside the "
                    "criterion's 30-minute budget")
def test_criterion_09_ex4_difference(inst_ex4):
    with criterion(9, "Ex4: order <= 11, trailing (s+1)...(s+9)", 1800):
        ops = zeta_difference(inst_ex4)
        target = UPoly.one()
        for i in range(1, 10):
            target = target * UPoly((i, 1))
        witnesses = []
        for op in ops:
            if op.order > 11:
                continue
            trailing = op.coeffs.get(0, UPoly.zero())
            q, r = trailing.divmod(target)
            if not r and q.degree == 0 and q.lead != 0:
                witnesses.append(op)
        assert witnesses, "no order <= 11 operator with trailing c(s+1)...(s+9)"
        # exact cross-check: the known order-11 annihilator lies in the ideal
        reference = _ex4_reference_operator()
        assert reference.order == 11
        a0, a11 = reference.coeffs[0], reference.coeffs[11]
        assert a0.exact_div(target).degree == 0 and a0.lead / a11.lead > 0
        assert difference_member(reference, ops)


def test_criterion_10_numeric_residuals(inst_gamma, inst_ex3):
    with criterion(10, "numeric residuals Gamma + Ex3", 60):
        # Gamma via the closed form
        ops_g = zeta_difference(inst_gamma)
        grid = [(i, float(mpmath.gamma(i + 1))) for i in range(0, 8)]
        assert residual_check(ops_g, grid) <= 1e-6
        # Ex3 via quadrature
        ops_3 = zeta_difference(inst_ex3)
        order = max(op.max_power for op in ops_3)
        lams = list(range(0, 7 + order))
        zv = numeric_zeta(inst_ex3.f, PhiSpec("one_sided_exp_inv"), lams,
                          tol=1e-8, box=80.0)
        assert residual_check(ops_3, list(zip(lams, zv.values))) <= 1e-4


def test_criterion_11_property_suites(inst_x, inst_xsq, inst_gamma, inst_ex3,
                                      inst_cusp, inst_cusp_gauss):
    """Always-on property suites are exercised by the module test files:

    ring axioms (200 cases)          tests/test_weyl_core.py
    tau homomorphism (100 cases)     tests/test_annihilator.py
    psi round trip (100 cases)       tests/test_annihilator.py
    mu homomorphism (100 cases)      tests/test_integration.py
    reduced-GB determinism (20)      tests/test_weyl_core.py
    This criterion re-runs the oracle-soundness half: every generator of
    every computed annihilator/Laurent ideal annihilates its section exactly.
    """
    from holozeta.oracle import LogSection, annihilates, apply_log_section
    with criterion(11, "oracle soundness over all shipped ideals", 600):
        instances = (inst_x, inst_xsq, inst_gamma, inst_ex3, inst_cusp,
                     inst_cusp_gauss)
        for inst in instances:
            ann = ann_fs(inst)
            section = LogSection.fs(inst)
            for g in ann.basis():
                assert annihilates(g, section)
        laurent_cases = [
            (inst_x, QQ(-1), -1), (inst_x, QQ(-1), 0),
            (inst_cusp, QQ(-1), -1), (inst_cusp, QQ(-5, 6), -1),
            (inst_cusp, QQ(-7, 6), -1),
        ]
        for inst, lam, k in laurent_cases:
            system = ann_laurent(LaurentRequest(inst, lam, k))
            a = lam + system.m
            w = None
            for j, Qj in enumerate(system.Qk):
                piece = LogSection.fs(inst, j=j, mult=Qj, symbolic=False, a=a)
                w = piece if w is None else w + piece
            for g in system.ann_w.basis():
                assert apply_log_section(g, w).is_zero()
