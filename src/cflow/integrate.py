"""Dormand–Prince 8(5,3) for complex-valued ODE systems along a polyline of nodes.

The polyline is walked as straight runs, split at its kinks, and read
lazily: before each step the walk reads nodes only until the run ends (at a
kink or at the last node) or until the farthest node read lies beyond the
step plus 1 % (the stretch allowed to a run's last step), so a call that
stops early reads few nodes past its stop.  Only the finiteness test reads
every node, up front, as one sum that is finite only when every node is; the
nodes are tested one by one only when that sum is not finite.  Along each
run the stepper advances freely by arc length with DOP853, the eighth-order
Runge–Kutta pair of Prince & Dormand (J. Comput. Appl. Math. 7 (1981) 67) in
the form of Hairer, Nørsett & Wanner (*Solving ODEs I*, §II.10), which those
authors recommend for tolerances below about 1e-7: twelve stages plus
f(t + h, y1), which is the first stage of the next step (FSAL), so twelve RHS
evaluations per step.  The error estimate combines the 5th- and 3rd-order
embedded differences as E5²/√(n (E5² + 0.01 E3²)), where E5² and E3² sum over
the n components the squares of each difference scaled by
ATOL + RTOL * max(|y|, |y1|); a step is accepted when the estimate is at most
1, and the next step length scales as err^(−1/8).  The nodes inside an
accepted step, and the crossing of an event, are read off DOP853's 7th-order
continuous extension (HNW §II.6), so the node spacing does not limit the
step; the extension costs three more RHS evaluations, on those steps only.
A step lands exactly on every kink and on the last node.  Each run is stepped
along the direction of its first segment, the reference of the straightness
test, so real nodes keep t real and exact.  A call's first step is the
distance to its first distinct node, and the step length carries over from
one run to the next.  An event is a real g(t, y) paired with the
`FlowStopped` subclass to raise where g turns positive: the flows' blow-up
and the portraits' stops.

The state is a scalar or a pair of plain Python complex numbers, the only
shapes the flows integrate; the RHS returns a complex number for a scalar and
a pair (a tuple or a length-2 array) for a pair.  The step is written out for
a pair, and a scalar rides in its first slot with 0 in the second.  The
tolerances come from the 1e-9 accuracy wanted at the nodes: the global error
runs about ten to a hundred times RTOL.
"""
from __future__ import annotations

import cmath
import math
import numbers

from .errors import DimensionMismatch, DomainError, FlowStopped, StepSizeUnderflow

RTOL = 1e-11
ATOL = 1e-13
MIN_STEP = 1e-16   # smallest step, as a fraction of the run read so far
MAX_STEPS = 20_000  # most steps, accepted or rejected, one call may attempt
STRAIGHT = 1e-9    # largest change of direction inside one straight run

# DOP853 (Hairer's dop853.f): nodes C, stages A, 8th-order weights B, the
# 3rd-order weights BHH (on k1, k9, k12), the 5th-order error weights ER, the
# three extra stages of the continuous extension and its weights D4..D7.
C2 = 0.526001519587677318785587544488e-01
C3 = 0.789002279381515978178381316732e-01
C4 = 0.118350341907227396726757197510
C5 = 0.281649658092772603273242802490
C6 = 0.333333333333333333333333333333
C7 = 0.25
C8 = 0.307692307692307692307692307692
C9 = 0.651282051282051282051282051282
C10 = 0.6
C11 = 0.857142857142857142857142857142
C14 = 0.1
C15 = 0.2
C16 = 0.777777777777777777777777777778

A21 = 5.26001519587677318785587544488e-2
A31 = 1.97250569845378994544595329183e-2
A32 = 5.91751709536136983633785987549e-2
A41 = 2.95875854768068491816892993775e-2
A43 = 8.87627564304205475450678981324e-2
A51 = 2.41365134159266685502369798665e-1
A53 = -8.84549479328286085344864962717e-1
A54 = 9.24834003261792003115737966543e-1
A61 = 3.7037037037037037037037037037e-2
A64 = 1.70828608729473871279604482173e-1
A65 = 1.25467687566822425016691814123e-1
A71 = 3.7109375e-2
A74 = 1.70252211019544039314978060272e-1
A75 = 6.02165389804559606850219397283e-2
A76 = -1.7578125e-2
A81 = 3.70920001185047927108779319836e-2
A84 = 1.70383925712239993810214054705e-1
A85 = 1.07262030446373284651809199168e-1
A86 = -1.53194377486244017527936158236e-2
A87 = 8.27378916381402288758473766002e-3
A91 = 6.24110958716075717114429577812e-1
A94 = -3.36089262944694129406857109825
A95 = -8.68219346841726006818189891453e-1
A96 = 2.75920996994467083049415600797e1
A97 = 2.01540675504778934086186788979e1
A98 = -4.34898841810699588477366255144e1
A101 = 4.77662536438264365890433908527e-1
A104 = -2.48811461997166764192642586468
A105 = -5.90290826836842996371446475743e-1
A106 = 2.12300514481811942347288949897e1
A107 = 1.52792336328824235832596922938e1
A108 = -3.32882109689848629194453265587e1
A109 = -2.03312017085086261358222928593e-2
A111 = -9.3714243008598732571704021658e-1
A114 = 5.18637242884406370830023853209
A115 = 1.09143734899672957818500254654
A116 = -8.14978701074692612513997267357
A117 = -1.85200656599969598641566180701e1
A118 = 2.27394870993505042818970056734e1
A119 = 2.49360555267965238987089396762
A1110 = -3.0467644718982195003823669022
A121 = 2.27331014751653820792359768449
A124 = -1.05344954667372501984066689879e1
A125 = -2.00087205822486249909675718444
A126 = -1.79589318631187989172765950534e1
A127 = 2.79488845294199600508499808837e1
A128 = -2.85899827713502369474065508674
A129 = -8.87285693353062954433549289258
A1210 = 1.23605671757943030647266201528e1
A1211 = 6.43392746015763530355970484046e-1

B1 = 5.42937341165687622380535766363e-2
B6 = 4.45031289275240888144113950566
B7 = 1.89151789931450038304281599044
B8 = -5.8012039600105847814672114227
B9 = 3.1116436695781989440891606237e-1
B10 = -1.52160949662516078556178806805e-1
B11 = 2.01365400804030348374776537501e-1
B12 = 4.47106157277725905176885569043e-2

BHH1 = 0.244094488188976377952755905512
BHH2 = 0.733846688281611857341361741547
BHH3 = 0.220588235294117647058823529412e-1

ER1 = 0.1312004499419488073250102996e-1
ER6 = -0.1225156446376204440720569753e+1
ER7 = -0.4957589496572501915214079952
ER8 = 0.1664377182454986536961530415e+1
ER9 = -0.3503288487499736816886487290
ER10 = 0.3341791187130174790297318841
ER11 = 0.8192320648511571246570742613e-1
ER12 = -0.2235530786388629525884427845e-1

A141 = 5.61675022830479523392909219681e-2
A147 = 2.53500210216624811088794765333e-1
A148 = -2.46239037470802489917441475441e-1
A149 = -1.24191423263816360469010140626e-1
A1410 = 1.5329179827876569731206322685e-1
A1411 = 8.20105229563468988491666602057e-3
A1412 = 7.56789766054569976138603589584e-3
A1413 = -8.298e-3
A151 = 3.18346481635021405060768473261e-2
A156 = 2.83009096723667755288322961402e-2
A157 = 5.35419883074385676223797384372e-2
A158 = -5.49237485713909884646569340306e-2
A1511 = -1.08347328697249322858509316994e-4
A1512 = 3.82571090835658412954920192323e-4
A1513 = -3.40465008687404560802977114492e-4
A1514 = 1.41312443674632500278074618366e-1
A161 = -4.28896301583791923408573538692e-1
A166 = -4.69762141536116384314449447206
A167 = 7.68342119606259904184240953878
A168 = 4.06898981839711007970213554331
A169 = 3.56727187455281109270669543021e-1
A1613 = -1.39902416515901462129418009734e-3
A1614 = 2.9475147891527723389556272149
A1615 = -9.15095847217987001081870187138

D41 = -0.84289382761090128651353491142e+1
D46 = 0.56671495351937776962531783590
D47 = -0.30689499459498916912797304727e+1
D48 = 0.23846676565120698287728149680e+1
D49 = 0.21170345824450282767155149946e+1
D410 = -0.87139158377797299206789907490
D411 = 0.22404374302607882758541771650e+1
D412 = 0.63157877876946881815570249290
D413 = -0.88990336451333310820698117400e-1
D414 = 0.18148505520854727256656404962e+2
D415 = -0.91946323924783554000451984436e+1
D416 = -0.44360363875948939664310572000e+1
D51 = 0.10427508642579134603413151009e+2
D56 = 0.24228349177525818288430175319e+3
D57 = 0.16520045171727028198505394887e+3
D58 = -0.37454675472269020279518312152e+3
D59 = -0.22113666853125306036270938578e+2
D510 = 0.77334326684722638389603898808e+1
D511 = -0.30674084731089398182061213626e+2
D512 = -0.93321305264302278729567221706e+1
D513 = 0.15697238121770843886131091075e+2
D514 = -0.31139403219565177677282850411e+2
D515 = -0.93529243588444783865713862664e+1
D516 = 0.35816841486394083752465898540e+2
D61 = 0.19985053242002433820987653617e+2
D66 = -0.38703730874935176555105901742e+3
D67 = -0.18917813819516756882830838328e+3
D68 = 0.52780815920542364900561016686e+3
D69 = -0.11573902539959630126141871134e+2
D610 = 0.68812326946963000169666922661e+1
D611 = -0.10006050966910838403183860980e+1
D612 = 0.77771377980534432092869265740
D613 = -0.27782057523535084065932004339e+1
D614 = -0.60196695231264120758267380846e+2
D615 = 0.84320405506677161018159903784e+2
D616 = 0.11992291136182789328035130030e+2
D71 = -0.25693933462703749003312586129e+2
D76 = -0.15418974869023643374053993627e+3
D77 = -0.23152937917604549567536039109e+3
D78 = 0.35763911791061412378285349910e+3
D79 = 0.93405324183624310003907691704e+2
D710 = -0.37458323136451633156875139351e+2
D711 = 0.10409964950896230045147246184e+3
D712 = 0.29840293426660503123344363579e+2
D713 = -0.43533456590011143754432175058e+2
D714 = 0.96324553959188282948394950600e+2
D715 = -0.39177261675615439165231486172e+2
D716 = -0.14972683625798562581422125276e+3

SAFETY, MIN_FACTOR, MAX_FACTOR = 0.9, 0.2, 10.0


def _dp_step(f, t, y, k1, dt, n):
    """One DOP853 step of (complex) length dt from (t, y), f(t, y) = k1.

    y and every stage are pairs; n, the dimension of the caller's system (1
    or 2), divides the error norm.  Returns the 8th-order y at t + dt, the
    scaled error estimate (not finite when any stage is not) and the stages
    k1..k13, k13 = f(t + dt, y1).
    """
    ya, yb = y
    k1a, k1b = k1
    k2 = f(t + C2 * dt, (ya + dt * (A21 * k1a), yb + dt * (A21 * k1b)))
    k2a, k2b = k2
    k3 = f(t + C3 * dt, (ya + dt * (A31 * k1a + A32 * k2a),
                         yb + dt * (A31 * k1b + A32 * k2b)))
    k3a, k3b = k3
    k4 = f(t + C4 * dt, (ya + dt * (A41 * k1a + A43 * k3a),
                         yb + dt * (A41 * k1b + A43 * k3b)))
    k4a, k4b = k4
    k5 = f(t + C5 * dt, (ya + dt * (A51 * k1a + A53 * k3a + A54 * k4a),
                         yb + dt * (A51 * k1b + A53 * k3b + A54 * k4b)))
    k5a, k5b = k5
    k6 = f(t + C6 * dt, (ya + dt * (A61 * k1a + A64 * k4a + A65 * k5a),
                         yb + dt * (A61 * k1b + A64 * k4b + A65 * k5b)))
    k6a, k6b = k6
    k7 = f(t + C7 * dt, (ya + dt * (A71 * k1a + A74 * k4a + A75 * k5a + A76 * k6a),
                         yb + dt * (A71 * k1b + A74 * k4b + A75 * k5b + A76 * k6b)))
    k7a, k7b = k7
    k8 = f(t + C8 * dt, (
        ya + dt * (A81 * k1a + A84 * k4a + A85 * k5a + A86 * k6a + A87 * k7a),
        yb + dt * (A81 * k1b + A84 * k4b + A85 * k5b + A86 * k6b + A87 * k7b)))
    k8a, k8b = k8
    k9 = f(t + C9 * dt, (
        ya + dt * (A91 * k1a + A94 * k4a + A95 * k5a + A96 * k6a + A97 * k7a
                   + A98 * k8a),
        yb + dt * (A91 * k1b + A94 * k4b + A95 * k5b + A96 * k6b + A97 * k7b
                   + A98 * k8b)))
    k9a, k9b = k9
    k10 = f(t + C10 * dt, (
        ya + dt * (A101 * k1a + A104 * k4a + A105 * k5a + A106 * k6a + A107 * k7a
                   + A108 * k8a + A109 * k9a),
        yb + dt * (A101 * k1b + A104 * k4b + A105 * k5b + A106 * k6b + A107 * k7b
                   + A108 * k8b + A109 * k9b)))
    k10a, k10b = k10
    k11 = f(t + C11 * dt, (
        ya + dt * (A111 * k1a + A114 * k4a + A115 * k5a + A116 * k6a + A117 * k7a
                   + A118 * k8a + A119 * k9a + A1110 * k10a),
        yb + dt * (A111 * k1b + A114 * k4b + A115 * k5b + A116 * k6b + A117 * k7b
                   + A118 * k8b + A119 * k9b + A1110 * k10b)))
    k11a, k11b = k11
    k12 = f(t + dt, (
        ya + dt * (A121 * k1a + A124 * k4a + A125 * k5a + A126 * k6a + A127 * k7a
                   + A128 * k8a + A129 * k9a + A1210 * k10a + A1211 * k11a),
        yb + dt * (A121 * k1b + A124 * k4b + A125 * k5b + A126 * k6b + A127 * k7b
                   + A128 * k8b + A129 * k9b + A1210 * k10b + A1211 * k11b)))
    k12a, k12b = k12
    wa = (B1 * k1a + B6 * k6a + B7 * k7a + B8 * k8a + B9 * k9a + B10 * k10a
          + B11 * k11a + B12 * k12a)
    wb = (B1 * k1b + B6 * k6b + B7 * k7b + B8 * k8b + B9 * k9b + B10 * k10b
          + B11 * k11b + B12 * k12b)
    y1a = ya + dt * wa
    y1b = yb + dt * wb
    y1 = (y1a, y1b)
    k13 = f(t + dt, y1)
    k13a, k13b = k13
    # dt enters each term before squaring, so tiny steps over huge stages
    # do not overflow
    sa = ATOL + RTOL * max(abs(ya), abs(y1a))
    sb = ATOL + RTOL * max(abs(yb), abs(y1b))
    e5 = ((abs(dt * (ER1 * k1a + ER6 * k6a + ER7 * k7a + ER8 * k8a + ER9 * k9a
                     + ER10 * k10a + ER11 * k11a + ER12 * k12a)) / sa) ** 2
          + (abs(dt * (ER1 * k1b + ER6 * k6b + ER7 * k7b + ER8 * k8b + ER9 * k9b
                       + ER10 * k10b + ER11 * k11b + ER12 * k12b)) / sb) ** 2)
    e3 = ((abs(dt * (wa - BHH1 * k1a - BHH2 * k9a - BHH3 * k12a)) / sa) ** 2
          + (abs(dt * (wb - BHH1 * k1b - BHH2 * k9b - BHH3 * k12b)) / sb) ** 2)
    err = e5 / math.sqrt((e5 + 0.01 * e3) * n) if e5 else 0.0
    # A non-finite stage fails the error test, even one the estimate omits.
    if not (err < math.inf and cmath.isfinite(
            k1a + k1b + (k2a + k2b) + (k3a + k3b) + (k4a + k4b) + (k5a + k5b)
            + (k6a + k6b) + (k7a + k7b) + (k8a + k8b) + (k9a + k9b) + (k10a + k10b)
            + (k11a + k11b) + (k12a + k12b) + (k13a + k13b) + (y1a + y1b))):
        err = math.inf
    return y1, err, (k1, k2, k3, k4, k5, k6, k7, k8, k9, k10, k11, k12, k13)


def _coeffs(a, b, dt, p, w, x, z, q, r, e, o, g, m, n, v):
    """The continuous extension's coefficients of one component.

    a, b: the component at the start and end of the step; p..v: its stages
    k1, k6..k16.
    """
    d = b - a
    return (
        a, d, dt * p - d, 2.0 * d - dt * (g + p),
        dt * (D41 * p + D46 * w + D47 * x + D48 * z + D49 * q + D410 * r
              + D411 * e + D412 * o + D413 * g + D414 * m + D415 * n + D416 * v),
        dt * (D51 * p + D56 * w + D57 * x + D58 * z + D59 * q + D510 * r
              + D511 * e + D512 * o + D513 * g + D514 * m + D515 * n + D516 * v),
        dt * (D61 * p + D66 * w + D67 * x + D68 * z + D69 * q + D610 * r
              + D611 * e + D612 * o + D613 * g + D614 * m + D615 * n + D616 * v),
        dt * (D71 * p + D76 * w + D77 * x + D78 * z + D79 * q + D710 * r
              + D711 * e + D712 * o + D713 * g + D714 * m + D715 * n + D716 * v))


def _dense(f, t, y, y1, dt, ks):
    """Coefficients of DOP853's continuous extension over one step, per component.

    Costs the three extra stages k14..k16.
    """
    ya, yb = y
    ((k1a, k1b), _, _, _, _, (k6a, k6b), (k7a, k7b), (k8a, k8b), (k9a, k9b),
     (k10a, k10b), (k11a, k11b), (k12a, k12b), (k13a, k13b)) = ks
    k14a, k14b = f(t + C14 * dt, (
        ya + dt * (A141 * k1a + A147 * k7a + A148 * k8a + A149 * k9a + A1410 * k10a
                   + A1411 * k11a + A1412 * k12a + A1413 * k13a),
        yb + dt * (A141 * k1b + A147 * k7b + A148 * k8b + A149 * k9b + A1410 * k10b
                   + A1411 * k11b + A1412 * k12b + A1413 * k13b)))
    k15a, k15b = f(t + C15 * dt, (
        ya + dt * (A151 * k1a + A156 * k6a + A157 * k7a + A158 * k8a + A1511 * k11a
                   + A1512 * k12a + A1513 * k13a + A1514 * k14a),
        yb + dt * (A151 * k1b + A156 * k6b + A157 * k7b + A158 * k8b + A1511 * k11b
                   + A1512 * k12b + A1513 * k13b + A1514 * k14b)))
    k16a, k16b = f(t + C16 * dt, (
        ya + dt * (A161 * k1a + A166 * k6a + A167 * k7a + A168 * k8a + A169 * k9a
                   + A1613 * k13a + A1614 * k14a + A1615 * k15a),
        yb + dt * (A161 * k1b + A166 * k6b + A167 * k7b + A168 * k8b + A169 * k9b
                   + A1613 * k13b + A1614 * k14b + A1615 * k15b)))
    y1a, y1b = y1
    return (_coeffs(ya, y1a, dt, k1a, k6a, k7a, k8a, k9a, k10a, k11a, k12a, k13a,
                    k14a, k15a, k16a),
            _coeffs(yb, y1b, dt, k1b, k6b, k7b, k8b, k9b, k10b, k11b, k12b, k13b,
                    k14b, k15b, k16b))


def _interp(cont, ths):
    """y at each fraction th in ths of the step, from the coefficients of `_dense`."""
    (a, r0, r1, r2, r3, r4, r5, r6), (b, s0, s1, s2, s3, s4, s5, s6) = cont
    out = []
    for th in ths:
        th1 = 1.0 - th
        out.append((a + th * (r0 + th1 * (r1 + th * (r2 + th1 * (
                        r3 + th * (r4 + th1 * (r5 + th * r6)))))),
                    b + th * (s0 + th1 * (s1 + th * (s2 + th1 * (
                        s3 + th * (s4 + th1 * (s5 + th * s6))))))))
    return out


def _crossing(g, t, dt, cont, shape):
    """Fraction of the step where g turns positive, in 60 bisections."""
    lo, hi = 0.0, 1.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if g(t + mid * dt, shape(_interp(cont, (mid,))[0])) > 0:
            hi = mid
        else:
            lo = mid
    return hi


def solve_rk4(f, nodes, y0, events=()):
    """Integrate dy/dt = f(t, y) along the polyline through `nodes`.

    y is a scalar or a pair: a complex number, or a sequence of one or two
    complex numbers; f returns the same shape (a complex number, or a
    sequence).  Other lengths raise DimensionMismatch.  Real nodes keep t
    real; complex nodes give complex t.  Returns y at every node: complex
    numbers for a scalar y0, tuples otherwise.  A node that is not finite
    raises DomainError before the first step; a distance along a run that
    overflows raises it where the walk reaches it.

    The nodes are read lazily, run by run, as far as the steps reach (module
    docstring): a call that an event stops reads few nodes beyond the stop.
    The first step is the distance from the first node to the next distinct
    one; each run is stepped along the direction of its first segment.

    events: pairs (g, exc) of a real g(t, y), y shaped as y0, and a
    FlowStopped subclass.  An event fires when g > 0 at the end of an
    accepted step (a sign change undone within the step goes unseen), and
    the call raises exc where g crosses 0, at the earliest crossing when
    several fire.  A call attempts at most ``MAX_STEPS`` steps, accepted or
    rejected, over all its runs, and raises FlowStopped at the next; the
    runs of the tests and the benchmark need under 300.  These exceptions
    and StepSizeUnderflow carry the t where the integration stopped
    (``tau_star``) and y at every node before it (``samples``).
    """
    # the sum is finite only when every node is; it overflows for some that are
    if not cmath.isfinite(sum(nodes)) and not all(map(cmath.isfinite, nodes)):
        raise DomainError("solve_rk4 needs finite nodes")
    scalar = isinstance(y0, numbers.Number)
    y = (complex(y0),) if scalar else tuple(complex(a) for a in y0)
    n = len(y)
    if n == 1:
        # one component rides in the first slot of the pair, 0 in the second
        rhs = f
        if scalar:
            f = lambda t, y: (rhs(t, y[0]), 0j)  # noqa: E731
            shape = lambda v: v[0]  # noqa: E731
        else:
            f = lambda t, y: (rhs(t, y[:1])[0], 0j)  # noqa: E731
            shape = lambda v: v[:1]  # noqa: E731
        unpack = lambda ys: [shape(v) for v in ys]  # noqa: E731
        y += (0j,)
    elif n == 2:
        shape, unpack = (lambda v: v), list
    else:
        raise DimensionMismatch(f"solve_rk4 integrates a scalar or a pair, not {n} components")
    out = [y]
    k1 = h = None
    i, last, steps = 0, len(nodes) - 1, 0
    while i < last:
        ta = nodes[i]
        if nodes[i + 1] == ta:
            out.append(y)
            i += 1
            continue
        # the straight run from node i, read as far as the steps reach: node j
        # is the farthest read, arcs holds the distances of nodes i + 1 .. j
        # from ta, and the run has ended once j is a kink or the last node
        j = i + 1
        d = nodes[j] - ta
        try:
            arcs = [abs(d)]
            unit = d / arcs[0]
        except OverflowError:  # abs() of a complex distance past the double range
            arcs = [math.inf]
        if h is None:
            h = arcs[0]
        t, u, m, rejected, ended = ta, 0.0, 0, False, j == last
        while True:
            # read past the reach of the clamp test below, so that nodes
            # repeated where the step lands are read with it
            try:
                while not ended and arcs[-1] <= u + 1.01 * h:
                    d = nodes[j + 1] - nodes[j]
                    if d != 0 and abs(d / abs(d) - unit) > STRAIGHT:
                        ended = True
                    else:
                        j += 1
                        arcs.append(abs(nodes[j] - ta))
                        ended = j == last
            except OverflowError:
                arcs.append(math.inf)
            if arcs[-1] == math.inf:
                raise DomainError(f"a distance along the contour from {ta} overflows")
            if u >= arcs[-1] and ended:
                break
            steps += 1
            if steps > MAX_STEPS:
                raise FlowStopped(f"step budget of {MAX_STEPS} spent at t = {t}",
                                  tau_star=t, samples=unpack(out))
            # stretch the last step of a run by up to 1 % rather than leave a sliver
            length = arcs[-1]
            clamped = ended and u + 1.01 * h >= length
            step = length - u if clamped else h
            dt = nodes[j] - t if clamped else step * unit
            u1 = length if clamped else u + step
            t1 = nodes[j] if clamped else ta + u1 * unit
            try:
                if k1 is None:
                    k1 = f(t, y)
                y1, err, ks = _dp_step(f, t, y, k1, dt, n)
                fired = [e for e in events if e[0](t1, shape(y1)) > 0] if err <= 1.0 else ()
                if err <= 1.0 and (fired or m < len(arcs) and arcs[m] < u1):
                    # the continuous extension, for a crossing or the nodes
                    # inside the step; a non-finite one fails the step
                    cont = _dense(f, t, y, y1, dt, ks)
                    if not cmath.isfinite(sum(map(sum, cont))):
                        err = math.inf
            except (OverflowError, ZeroDivisionError):
                err = math.inf
            if not err <= 1.0:
                h = step * (max(MIN_FACTOR, SAFETY * err ** -0.125) if err < math.inf
                            else MIN_FACTOR)
                rejected = True
                if h < length * MIN_STEP or h == 0:
                    raise StepSizeUnderflow(f"step underflow at t = {t}",
                                            tau_star=t, samples=unpack(out))
                continue
            limit = u1
            if fired:
                hi, k = min((_crossing(g, t, dt, cont, shape), k)
                            for k, (g, _) in enumerate(fired))
                limit = u + hi * step
            # the nodes inside the step (before the crossing)
            ths = []
            while m < len(arcs) and arcs[m] < limit:
                ths.append((arcs[m] - u) / step)
                m += 1
            if ths:
                out += _interp(cont, ths)
            if fired:
                t_star = t + hi * dt
                raise fired[k][1](f"{fired[k][1].__name__} event at t = {t_star}",
                                  tau_star=t_star, samples=unpack(out))
            # the nodes the step lands on
            while m < len(arcs) and (arcs[m] == u1 or clamped):
                out.append(y1)
                m += 1
            fac = SAFETY * err ** -0.125 if err > 0 else MAX_FACTOR
            fac = min(1.0 if rejected else MAX_FACTOR, max(MIN_FACTOR, fac))
            h = max(h, step * fac) if clamped else step * fac
            t, u, y, k1, rejected = t1, u1, y1, ks[-1], False
        i = j
    return unpack(out)
