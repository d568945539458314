/* Compiled Dormand-Prince 8(5,3) kernels (Hairer's DOP853).

   Same tableau, error norm, step control, status codes and contract as
   _refkernels, whose scalar loops perform the same floating-point operations
   in the same order, so the two backends agree bit for bit (build with
   -ffp-contract=off, so that no multiply and add are fused into one FMA, for
   that to hold on every platform).  A sampled h-geodesic is one sweep over
   the whole grid, read at the grid times through DOP853's 7th-order dense
   output, whose three extra stages run only on steps that pass a grid time.
   Work arrays are sized from the input, so there is no cap on dimensions or
   columns.  Integration runs with the GIL released, on private copies of the
   inputs. */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <math.h>
#include <stdlib.h>
#include <string.h>

#ifndef NPY_NO_DEPRECATED_API
#define NPY_NO_DEPRECATED_API NPY_1_7_API_VERSION
#endif
#include <numpy/arrayobject.h>

enum { STATUS_OK, STATUS_MAX_STEPS, STATUS_UNDERFLOW, STATUS_BOUNDARY };
enum { PATH_LINE, PATH_TRIG, PATH_HYP };

/* Dormand-Prince 8(5,3) (Hairer's dop853), as in _refkernels: A[s] is the
   input of stage s + 1, with stages 1-12 the step, A[12] = B the 8th-order
   weights (stage 13, the derivative at the new state, is the next step's
   stage 1: FSAL), and stages 14-16 the extra stages of the 7th-order dense
   output (contd8), with D its coefficients.  ER is the 5th-order error
   estimator and B - BHH the 3rd-order one, BHH on stages 1, 9 and 12. */
static const double A[16][16] = {
    [1] = {[0] = 0.05260015195876773},
    [2] = {[0] = 0.0197250569845379, [1] = 0.0591751709536137},
    [3] = {[0] = 0.02958758547680685, [2] = 0.08876275643042054},
    [4] = {[0] = 0.2413651341592667, [2] = -0.8845494793282861, [3] = 0.924834003261792},
    [5] = {[0] = 0.037037037037037035, [3] = 0.17082860872947386,
        [4] = 0.12546768756682242},
    [6] = {[0] = 0.037109375, [3] = 0.17025221101954405, [4] = 0.06021653898045596,
        [5] = -0.017578125},
    [7] = {[0] = 0.03709200011850479, [3] = 0.17038392571223998, [4] = 0.10726203044637328,
        [5] = -0.015319437748624402, [6] = 0.008273789163814023},
    [8] = {[0] = 0.6241109587160757, [3] = -3.3608926294469414, [4] = -0.868219346841726,
        [5] = 27.59209969944671, [6] = 20.154067550477894, [7] = -43.48988418106996},
    [9] = {[0] = 0.47766253643826434, [3] = -2.4881146199716677, [4] = -0.590290826836843,
        [5] = 21.230051448181193, [6] = 15.279233632882423, [7] = -33.28821096898486,
        [8] = -0.020331201708508627},
    [10] = {[0] = -0.9371424300859873, [3] = 5.186372428844064, [4] = 1.0914373489967295,
        [5] = -8.149787010746927, [6] = -18.52006565999696, [7] = 22.739487099350505,
        [8] = 2.4936055526796523, [9] = -3.0467644718982196},
    [11] = {[0] = 2.273310147516538, [3] = -10.53449546673725, [4] = -2.0008720582248625,
        [5] = -17.9589318631188, [6] = 27.94888452941996, [7] = -2.8589982771350235,
        [8] = -8.87285693353063, [9] = 12.360567175794303, [10] = 0.6433927460157636},
    [12] = {[0] = 0.054293734116568765, [5] = 4.450312892752409, [6] = 1.8915178993145003,
        [7] = -5.801203960010585, [8] = 0.3111643669578199, [9] = -0.1521609496625161,
        [10] = 0.20136540080403034, [11] = 0.04471061572777259},
    [13] = {[0] = 0.056167502283047954, [6] = 0.25350021021662483,
        [7] = -0.2462390374708025, [8] = -0.12419142326381637,
        [9] = 0.15329179827876568, [10] = 0.00820105229563469,
        [11] = 0.007567897660545699, [12] = -0.008298},
    [14] = {[0] = 0.03183464816350214, [5] = 0.028300909672366776,
        [6] = 0.053541988307438566, [7] = -0.05492374857139099,
        [10] = -0.00010834732869724932, [11] = 0.0003825710908356584,
        [12] = -0.00034046500868740456, [13] = 0.1413124436746325},
    [15] = {[0] = -0.42889630158379194, [5] = -4.697621415361164, [6] = 7.683421196062599,
        [7] = 4.06898981839711, [8] = 0.3567271874552811,
        [12] = -0.0013990241651590145, [13] = 2.9475147891527724,
        [14] = -9.15095847217987},
};
static const double C[16] = {0.0, 0.05260015195876773, 0.0789002279381516, 0.1183503419072274,
                             0.2816496580927726, 0.3333333333333333, 0.25, 0.3076923076923077,
                             0.6512820512820513, 0.6, 0.8571428571428571, 1.0, 1.0, 0.1, 0.2,
                             0.7777777777777778};
static const double ER[12] = {0.01312004499419488, 0.0, 0.0, 0.0, 0.0, -1.2251564463762044,
                              -0.4957589496572502, 1.6643771824549864, -0.35032884874997366,
                              0.3341791187130175, 0.08192320648511571, -0.022355307863886294};
static const double BHH1 = 0.2440944881889764, BHH2 = 0.7338466882816118,
                    BHH3 = 0.022058823529411766;
static const double D[4][16] = {
    [0] = {[0] = -8.428938276109013, [5] = 0.5667149535193777, [6] = -3.0689499459498917,
        [7] = 2.38466765651207, [8] = 2.117034582445028, [9] = -0.871391583777973,
        [10] = 2.2404374302607883, [11] = 0.6315787787694688,
        [12] = -0.08899033645133331, [13] = 18.148505520854727,
        [14] = -9.194632392478356, [15] = -4.436036387594894},
    [1] = {[0] = 10.427508642579134, [5] = 242.28349177525817, [6] = 165.20045171727028,
        [7] = -374.5467547226902, [8] = -22.113666853125306, [9] = 7.733432668472264,
        [10] = -30.674084731089398, [11] = -9.332130526430229,
        [12] = 15.697238121770845, [13] = -31.139403219565178,
        [14] = -9.35292435884448, [15] = 35.81684148639408},
    [2] = {[0] = 19.985053242002433, [5] = -387.0373087493518, [6] = -189.17813819516758,
        [7] = 527.8081592054236, [8] = -11.57390253995963, [9] = 6.8812326946963,
        [10] = -1.0006050966910838, [11] = 0.7777137798053443,
        [12] = -2.778205752353508, [13] = -60.19669523126412,
        [14] = 84.32040550667716, [15] = 11.99229113618279},
    [3] = {[0] = -25.69393346270375, [5] = -154.18974869023643, [6] = -231.5293791760455,
        [7] = 357.6391179106141, [8] = 93.40532418362432, [9] = -37.45832313645163,
        [10] = 104.0996495089623, [11] = 29.8402934266605, [12] = -43.53345659001114,
        [13] = 96.32455395918828, [14] = -39.17726167561544,
        [15] = -149.72683625798564},
};

typedef struct {
    int geodesic;           /* 0: transport ODE, 1: conformal geodesic flow */
    int kind;               /* PATH_*, transport only */
    Py_ssize_t d, ncols;
    double lam, psi_floor;
    double *eps, *c0, *c1;  /* d entries each; c0, c1 transport only */
    double *g, *dg, *eg;    /* d entries each, transport scratch */
} Problem;

/* Right-hand side; returns -1 when |psi| drops below the floor. */
static int rhs(const Problem *pb, double t, const double *y, double *dy)
{
    const Py_ssize_t d = pb->d, nc = pb->ncols;
    double *g = pb->g, *dg = pb->dg, *eg = pb->eg;
    double psi = pb->lam, pg = 0.0, coef, gv, ct, st, xu = 0.0, qu = 0.0;
    Py_ssize_t i, j;
    if (pb->geodesic) {
        for (i = 0; i < d; i++) {
            psi += pb->eps[i] * y[i] * y[i];
            xu += pb->eps[i] * y[i] * y[d + i];
            qu += pb->eps[i] * y[d + i] * y[d + i];
        }
        if (fabs(psi) < pb->psi_floor)
            return -1;
        for (i = 0; i < d; i++) {
            dy[i] = y[d + i];
            dy[d + i] = (8.0 * xu * y[d + i] - 4.0 * qu * y[i]) / psi;
        }
        return 0;
    }
    if (pb->kind == PATH_LINE) {
        for (i = 0; i < d; i++) {
            g[i] = pb->c0[i] + t * pb->c1[i];
            dg[i] = pb->c1[i];
        }
    } else {
        /* (cos, sin) or (cosh, sinh); g' = sg S c0 + C c1 with sg = -1 or +1 */
        const int trig = pb->kind == PATH_TRIG;
        ct = trig ? cos(t) : cosh(t);
        st = trig ? sin(t) : sinh(t);
        for (i = 0; i < d; i++) {
            g[i] = ct * pb->c0[i] + st * pb->c1[i];
            dg[i] = (trig ? -st : st) * pb->c0[i] + ct * pb->c1[i];
        }
    }
    for (i = 0; i < d; i++) {
        eg[i] = pb->eps[i] * g[i];
        psi += eg[i] * g[i];
        pg += eg[i] * dg[i];
    }
    if (fabs(psi) < pb->psi_floor)
        return -1;
    coef = 2.0 / psi;
    for (j = 0; j < nc; j++) {
        gv = 0.0;
        for (i = 0; i < d; i++)
            gv += eg[i] * y[i * nc + j];
        for (i = 0; i < d; i++)
            dy[i * nc + j] = coef * (pg * y[i * nc + j] + dg[i] * gv);
    }
    return 0;
}

/* Stage s + 1 of the step of size h from (t, y): its input, built from the
   earlier stages k[0..s-1] into ytmp, and its derivative into k[s].  Returns
   -1 when |psi| drops below the floor. */
static int stage(const Problem *pb, int s, double t, double h, const double *y,
                 double *const *k, Py_ssize_t n, double *ytmp)
{
    double acc;
    Py_ssize_t i;
    int j;
    for (i = 0; i < n; i++) {
        acc = 0.0;
        for (j = 0; j < s; j++)
            if (A[s][j] != 0.0)
                acc += A[s][j] * k[j][i];
        ytmp[i] = y[i] + h * acc;
    }
    return rhs(pb, t + C[s] * h, ytmp, k[s]);
}

/* One adaptive DOP853 sweep from t0 to t1, integrating the n entries of y in
   place (see _refkernels._drive for the error norm, the step control and
   err_accum).  stops are nstops times before t1 in sweep order; the state at
   each is written to the next n entries of rows, read off the dense output
   of the accepted step that passes it, and *nrows counts the rows written.
   work holds 26 n doubles.  Adds the accepted error estimates to *err_accum. */
static int drive(const Problem *pb, double t0, double t1, double *y,
                 Py_ssize_t n, double rtol, double atol, long max_steps,
                 const double *stops, Py_ssize_t nstops, double *rows, Py_ssize_t *nrows,
                 double *work, double *err_accum, long *nsteps)
{
    double *k[16], *ytmp = work + 16 * n, *y8 = work + 17 * n, *cont = work + 18 * n, *swap;
    double t, tn, h, span, direction, err, err5, err3, deno, big, sc, factor, acc, e5, e3;
    double th, th1, *out;
    long steps = 0;
    Py_ssize_t i, done = 0;
    int s, r, rejected = 0, status = STATUS_MAX_STEPS;
    for (s = 0; s < 16; s++)
        k[s] = work + s * n;
    *nsteps = 0;
    *nrows = 0;
    span = t1 - t0;
    if (span == 0.0)
        return STATUS_OK;
    direction = span > 0 ? 1.0 : -1.0;
    t = t0;
    h = span * 0.01;
    if (rhs(pb, t, y, k[0]) != 0)
        return STATUS_BOUNDARY;
    while (steps < max_steps) {
        if (direction * (t + h - t1) > 0)
            h = t1 - t;
        if (fabs(h) < 1e-14 * fabs(span)) {
            status = STATUS_UNDERFLOW;
            break;
        }
        for (s = 1; s < 12; s++)
            if (stage(pb, s, t, h, y, k, n, ytmp) != 0)
                goto boundary;
        err5 = 0.0;
        err3 = 0.0;
        big = 0.0;
        for (i = 0; i < n; i++) {
            acc = 0.0;
            e5 = 0.0;
            for (s = 0; s < 12; s++) {
                if (A[12][s] != 0.0)
                    acc += A[12][s] * k[s][i];
                if (ER[s] != 0.0)
                    e5 += ER[s] * k[s][i];
            }
            y8[i] = y[i] + h * acc;
            e3 = acc - BHH1 * k[0][i] - BHH2 * k[8][i] - BHH3 * k[11][i];
            sc = fabs(y[i]) > fabs(y8[i]) ? fabs(y[i]) : fabs(y8[i]);
            sc = atol + rtol * sc;
            err5 += (e5 / sc) * (e5 / sc);
            err3 += (e3 / sc) * (e3 / sc);
            if (fabs(e5) > big)
                big = fabs(e5);
        }
        deno = err5 + 0.01 * err3;
        if (deno <= 0.0)
            deno = 1.0;
        err = fabs(h) * err5 / sqrt(n * deno);
        steps += 1;
        factor = 0.9 * pow(err + 1e-300, -0.125);
        if (!(factor > 0.333))  /* a NaN error shrinks the step, as in _refkernels */
            factor = 0.333;
        if (factor > 6.0)
            factor = 6.0;
        if (err <= 1.0) {
            /* a step aimed at t1 ends there; t + (t1 - t) can round an ulp short */
            tn = h == t1 - t ? t1 : t + h;
            if (rhs(pb, tn, y8, k[12]) != 0)
                goto boundary;
            if (done < nstops && direction * (tn - stops[done]) > 0) {
                for (s = 13; s < 16; s++)
                    if (stage(pb, s, t, h, y, k, n, ytmp) != 0)
                        goto boundary;
                for (i = 0; i < n; i++) {
                    cont[i] = y[i];
                    cont[n + i] = y8[i] - y[i];
                    cont[2 * n + i] = h * k[0][i] - cont[n + i];
                    cont[3 * n + i] = cont[n + i] - h * k[12][i] - cont[2 * n + i];
                    for (r = 0; r < 4; r++) {
                        acc = 0.0;
                        for (s = 0; s < 16; s++)
                            if (D[r][s] != 0.0)
                                acc += D[r][s] * k[s][i];
                        cont[(4 + r) * n + i] = h * acc;
                    }
                }
                for (; done < nstops && direction * (tn - stops[done]) > 0; done++) {
                    th = (stops[done] - t) / h;
                    th1 = 1.0 - th;
                    out = rows + done * n;
                    for (i = 0; i < n; i++)
                        out[i] = cont[i] + th * (cont[n + i] + th1 * (cont[2 * n + i] + th * (
                            cont[3 * n + i] + th1 * (cont[4 * n + i] + th * (
                                cont[5 * n + i] + th1 * (cont[6 * n + i] + th * cont[7 * n + i]))))));
                }
                *nrows = done;
            }
            t = tn;
            memcpy(y, y8, n * sizeof(double));
            swap = k[0];  /* FSAL */
            k[0] = k[12];
            k[12] = swap;
            *err_accum += fabs(h) * big * sqrt(err5 / deno);
            if (direction * (t - t1) >= 0) {
                status = STATUS_OK;
                break;
            }
            if (rejected && factor > 1.0)
                factor = 1.0;
            rejected = 0;
        } else {
            rejected = 1;
        }
        h = h * factor;
    }
    *nsteps = steps;
    return status;
boundary:
    *nsteps = steps;
    return STATUS_BOUNDARY;
}

/* 1-D float64 C-contiguous view or copy of obj; NULL with an exception set. */
static PyArrayObject *vector(PyObject *obj)
{
    return (PyArrayObject *)PyArray_FROMANY(obj, NPY_DOUBLE, 1, 1, NPY_ARRAY_IN_ARRAY);
}

/* Copy d-entry vectors into work; ValueError if one has another length. */
static int copy_vectors(double *work, Py_ssize_t d, PyArrayObject **vs, int count)
{
    int m;
    for (m = 0; m < count; m++) {
        if (PyArray_DIM(vs[m], 0) != d) {
            PyErr_Format(PyExc_ValueError, "vector of length %zd where %zd expected",
                         (Py_ssize_t)PyArray_DIM(vs[m], 0), d);
            return -1;
        }
        memcpy(work + m * d, PyArray_DATA(vs[m]), d * sizeof(double));
    }
    return 0;
}

static PyObject *transport_segment(PyObject *self, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"kind", "c0", "c1", "t0", "t1", "lam", "eps", "V0", "rtol",
                             "atol", "max_steps", "psi_floor", NULL};
    PyObject *c0o, *c1o, *epso, *V0o, *result = NULL;
    PyArrayObject *in[3] = {NULL, NULL, NULL}, *V0 = NULL, *out = NULL;
    double kind, t0, t1, lam, rtol = 1e-10, atol = 1e-10, psi_floor = 1e-12, err = 0.0;
    double *work = NULL, *vec;
    long max_steps = 10000000, nsteps = 0;
    int status, m;
    Py_ssize_t d, n, nrows;
    npy_intp dims[2];
    Problem pb;
    (void)self;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "dOOdddOO|ddld:transport_segment", kwlist,
                                     &kind, &c0o, &c1o, &t0, &t1, &lam, &epso, &V0o,
                                     &rtol, &atol, &max_steps, &psi_floor))
        return NULL;
    if (kind != PATH_LINE && kind != PATH_TRIG && kind != PATH_HYP)
        return PyErr_Format(PyExc_ValueError, "unknown path kind");
    if (!isfinite(t0) || !isfinite(t1))
        return PyErr_Format(PyExc_ValueError, "integration times must be finite");
    if (!(psi_floor > 0.0))
        return PyErr_Format(PyExc_ValueError, "psi_floor must be positive");
    if (!(in[0] = vector(c0o)) || !(in[1] = vector(c1o)) || !(in[2] = vector(epso)))
        goto done;
    V0 = (PyArrayObject *)PyArray_FROMANY(V0o, NPY_DOUBLE, 0, 0, NPY_ARRAY_IN_ARRAY);
    if (!V0)
        goto done;
    d = PyArray_DIM(in[0], 0);
    n = PyArray_SIZE(V0);
    if (d == 0 || n == 0 || n % d != 0) {  /* an empty state is refused, as in _refkernels */
        PyErr_Format(PyExc_ValueError, "V0 of size %zd does not split into %zd nonempty rows",
                     n, d);
        goto done;
    }
    /* a 1-D V0 comes back 1-D, anything else as d x ncols */
    dims[0] = PyArray_NDIM(V0) == 1 ? n : d;
    dims[1] = n / d;
    out = (PyArrayObject *)PyArray_SimpleNew(PyArray_NDIM(V0) == 1 ? 1 : 2, dims, NPY_DOUBLE);
    if (!out || !(work = malloc((26 * n + 6 * d) * sizeof(double)))) {
        PyErr_NoMemory();
        goto done;
    }
    /* work: DOP853 stages and scratch | c0 c1 eps | g dg eg */
    vec = work + 26 * n;
    if (copy_vectors(vec, d, in, 3) < 0)
        goto done;
    memcpy(PyArray_DATA(out), PyArray_DATA(V0), n * sizeof(double));
    pb = (Problem){.kind = (int)kind, .d = d, .ncols = n / d, .lam = lam, .psi_floor = psi_floor,
                   .c0 = vec, .c1 = vec + d, .eps = vec + 2 * d, .g = vec + 3 * d,
                   .dg = vec + 4 * d, .eg = vec + 5 * d};
    Py_BEGIN_ALLOW_THREADS
    status = drive(&pb, t0, t1, (double *)PyArray_DATA(out), n, rtol, atol, max_steps,
                   NULL, 0, NULL, &nrows, work, &err, &nsteps);
    Py_END_ALLOW_THREADS
    result = Py_BuildValue("(Odli)", (PyObject *)out, err, nsteps, status);
done:
    free(work);
    for (m = 0; m < 3; m++)
        Py_XDECREF(in[m]);
    Py_XDECREF(V0);
    Py_XDECREF(out);
    return result;
}

static PyObject *h_geodesic_sample(PyObject *self, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"x0", "v0", "lam", "eps", "t_grid", "rtol", "atol",
                             "max_steps", "psi_floor", NULL};
    PyObject *x0o, *v0o, *epso, *tgo, *head, *result = NULL;
    PyArrayObject *in[3] = {NULL, NULL, NULL}, *tg = NULL, *out = NULL;
    double lam, rtol = 1e-10, atol = 1e-10, psi_floor = 1e-12, err = 0.0, direction;
    double *work = NULL, *y, *rows, *times;
    long max_steps = 10000000, steps = 0;
    int status, m;
    Py_ssize_t d, n, nt, row, nstops, nrows;
    npy_intp dims[2];
    Problem pb;
    (void)self;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "OOdOO|ddld:h_geodesic_sample", kwlist,
                                     &x0o, &v0o, &lam, &epso, &tgo, &rtol, &atol,
                                     &max_steps, &psi_floor))
        return NULL;
    if (!(psi_floor > 0.0))
        return PyErr_Format(PyExc_ValueError, "psi_floor must be positive");
    if (!(in[0] = vector(x0o)) || !(in[1] = vector(v0o)) || !(in[2] = vector(epso))
        || !(tg = vector(tgo)))
        goto done;
    d = PyArray_DIM(in[0], 0);
    n = 2 * d;
    nt = PyArray_DIM(tg, 0);
    if (nt == 0) {
        PyErr_SetString(PyExc_IndexError, "t_grid is empty: no start time");
        goto done;
    }
    if (d == 0) {
        PyErr_SetString(PyExc_ValueError, "empty state: the vectors have no entries");
        goto done;
    }
    dims[0] = nt;
    dims[1] = n;
    out = (PyArrayObject *)PyArray_SimpleNew(2, dims, NPY_DOUBLE);
    if (!out || !(work = malloc((26 * n + 3 * d + nt) * sizeof(double)))) {
        PyErr_NoMemory();
        goto done;
    }
    /* work: DOP853 stages and scratch | x0 v0 (the state y) | eps | t_grid */
    y = work + 26 * n;
    if (copy_vectors(y, d, in, 3) < 0)
        goto done;
    times = y + 3 * d;
    memcpy(times, PyArray_DATA(tg), nt * sizeof(double));
    for (row = 0; row < nt; row++)
        if (!isfinite(times[row])) {
            PyErr_SetString(PyExc_ValueError, "integration times must be finite");
            goto done;
        }
    direction = times[nt - 1] >= times[0] ? 1.0 : -1.0;
    for (row = 1; row < nt; row++)
        if (direction * (times[row] - times[row - 1]) < 0) {
            PyErr_SetString(PyExc_ValueError, "t_grid must be monotone");
            goto done;
        }
    /* the times before the end are a prefix of the grid, after its start */
    nstops = 0;
    while (1 + nstops < nt && direction * (times[nt - 1] - times[1 + nstops]) > 0)
        nstops++;
    rows = (double *)PyArray_DATA(out);
    memcpy(rows, y, n * sizeof(double));
    pb = (Problem){.geodesic = 1, .d = d, .ncols = 1, .lam = lam, .psi_floor = psi_floor,
                   .eps = y + n};
    Py_BEGIN_ALLOW_THREADS
    status = drive(&pb, times[0], times[nt - 1], y, n, rtol, atol, max_steps, times + 1,
                   nstops, rows + n, &nrows, work, &err, &steps);
    row = 1 + nrows;
    if (status == STATUS_OK)
        for (; row < nt; row++)
            memcpy(rows + row * n, y, n * sizeof(double));
    Py_END_ALLOW_THREADS
    /* on a non-OK status, the rows passed so far */
    if ((head = PySequence_GetSlice((PyObject *)out, 0, row)))
        result = Py_BuildValue("(Ndli)", head, err, steps, status);
done:
    free(work);
    for (m = 0; m < 3; m++)
        Py_XDECREF(in[m]);
    Py_XDECREF(tg);
    Py_XDECREF(out);
    return result;
}

static PyMethodDef methods[] = {
    {"transport_segment", (PyCFunction)(void (*)(void))transport_segment,
     METH_VARARGS | METH_KEYWORDS, "See _refkernels.transport_segment; identical contract."},
    {"h_geodesic_sample", (PyCFunction)(void (*)(void))h_geodesic_sample,
     METH_VARARGS | METH_KEYWORDS, "See _refkernels.h_geodesic_sample; identical contract."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, "_fastkernels",
    "Compiled Dormand-Prince 8(5,3) kernels; see _refkernels for the contract.",
    -1, methods, NULL, NULL, NULL, NULL,
};

PyMODINIT_FUNC PyInit__fastkernels(void)
{
    PyObject *mod;
    import_array();
    mod = PyModule_Create(&module);
    if (!mod)
        return NULL;
    if (PyModule_AddStringConstant(mod, "BACKEND", "compiled") < 0
        || PyModule_AddIntConstant(mod, "STATUS_OK", STATUS_OK) < 0
        || PyModule_AddIntConstant(mod, "STATUS_MAX_STEPS", STATUS_MAX_STEPS) < 0
        || PyModule_AddIntConstant(mod, "STATUS_UNDERFLOW", STATUS_UNDERFLOW) < 0
        || PyModule_AddIntConstant(mod, "STATUS_BOUNDARY", STATUS_BOUNDARY) < 0
        || PyModule_AddIntConstant(mod, "PATH_LINE", PATH_LINE) < 0
        || PyModule_AddIntConstant(mod, "PATH_TRIG", PATH_TRIG) < 0
        || PyModule_AddIntConstant(mod, "PATH_HYP", PATH_HYP) < 0) {
        Py_DECREF(mod);
        return NULL;
    }
    return mod;
}
