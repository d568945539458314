/* Compiled Dormand-Prince 5(4) kernels.

   Same tableau, step control, status codes and contract as _refkernels, whose
   scalar loops perform the same floating-point operations in the same order,
   so the two backends agree bit for bit (build with -ffp-contract=off, so
   that no multiply and add are fused into one FMA, for that to hold on every
   platform).  A sampled h-geodesic is one sweep over the whole grid, read at
   the grid times through the 4th-order Dormand-Prince dense output.  Work
   arrays are sized from the input, so there is no cap on dimensions or
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

static const double A[7][6] = {
    {0.0},
    {1.0 / 5.0},
    {3.0 / 40.0, 9.0 / 40.0},
    {44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0},
    {19372.0 / 6561.0, -25360.0 / 2187.0, 64448.0 / 6561.0, -212.0 / 729.0},
    {9017.0 / 3168.0, -355.0 / 33.0, 46732.0 / 5247.0, 49.0 / 176.0,
     -5103.0 / 18656.0},
    {35.0 / 384.0, 0.0, 500.0 / 1113.0, 125.0 / 192.0, -2187.0 / 6784.0,
     11.0 / 84.0},
};
static const double B[7] = {35.0 / 384.0, 0.0, 500.0 / 1113.0, 125.0 / 192.0,
                            -2187.0 / 6784.0, 11.0 / 84.0, 0.0};
static const double E[7] = {71.0 / 57600.0, 0.0, -71.0 / 16695.0, 71.0 / 1920.0,
                            -17253.0 / 339200.0, 22.0 / 525.0, -1.0 / 40.0};
static const double C[7] = {0.0, 1.0 / 5.0, 3.0 / 10.0, 4.0 / 5.0, 8.0 / 9.0,
                            1.0, 1.0};
/* Dense output (Hairer's dopri5 contd5): the 4th-order term of the interpolant. */
static const double D[7] = {-12715105075.0 / 11282082432.0, 0.0,
                            87487479700.0 / 32700410799.0, -10690763975.0 / 1880347072.0,
                            701980252875.0 / 199316789632.0, -1453857185.0 / 822651844.0,
                            69997945.0 / 29380423.0};

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

/* The state at ts in the accepted step from (t, y) to (t + h, y5), read off
   the Dormand-Prince dense output into out. */
static void dense(double ts, double t, double h, const double *y, const double *y5,
                  double *const *k, Py_ssize_t n, double *out)
{
    const double th = (ts - t) / h, th1 = 1.0 - th;
    double dy, bs, c5;
    Py_ssize_t i;
    int s;
    for (i = 0; i < n; i++) {
        dy = y5[i] - y[i];
        bs = h * k[0][i] - dy;
        c5 = 0.0;
        for (s = 0; s < 7; s++)
            if (D[s] != 0.0)
                c5 += D[s] * k[s][i];
        c5 = h * c5;
        out[i] = y[i] + th * (dy + th1 * (bs + th * ((dy - h * k[6][i] - bs) + th1 * c5)));
    }
}

/* One adaptive sweep from t0 to t1, integrating the n entries of y in place.
   stops are nstops times before t1 in sweep order; the state at each is
   written to the next n entries of rows, and *nrows counts the rows written.
   work holds 10 n doubles.  Adds the accepted error estimates to *err_accum. */
static int drive(const Problem *pb, double t0, double t1, double *y,
                 Py_ssize_t n, double rtol, double atol, long max_steps,
                 const double *stops, Py_ssize_t nstops, double *rows, Py_ssize_t *nrows,
                 double *work, double *err_accum, long *nsteps)
{
    double *k[7], *ytmp = work + 7 * n, *y5 = work + 8 * n, *ev = work + 9 * n;
    double t, tn, h, span, direction, err, sc, factor, acc, eacc, maxcomp;
    long steps = 0;
    Py_ssize_t i, done = 0;
    int s, j;
    for (s = 0; s < 7; s++)
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
            *nsteps = steps;
            return STATUS_UNDERFLOW;
        }
        for (s = 1; s < 7; s++) {
            for (i = 0; i < n; i++) {
                acc = 0.0;
                for (j = 0; j < s; j++)
                    if (A[s][j] != 0.0)
                        acc += A[s][j] * k[j][i];
                ytmp[i] = y[i] + h * acc;
            }
            if (rhs(pb, t + C[s] * h, ytmp, k[s]) != 0) {
                *nsteps = steps;
                return STATUS_BOUNDARY;
            }
        }
        err = 0.0;
        maxcomp = 0.0;
        for (i = 0; i < n; i++) {
            acc = 0.0;
            eacc = 0.0;
            for (s = 0; s < 7; s++) {
                if (B[s] != 0.0)
                    acc += B[s] * k[s][i];
                if (E[s] != 0.0)
                    eacc += E[s] * k[s][i];
            }
            y5[i] = y[i] + h * acc;
            ev[i] = h * eacc;
        }
        for (i = 0; i < n; i++) {
            sc = fabs(y[i]) > fabs(y5[i]) ? fabs(y[i]) : fabs(y5[i]);
            sc = atol + rtol * sc;
            err += (ev[i] / sc) * (ev[i] / sc);
            if (fabs(ev[i]) > maxcomp)
                maxcomp = fabs(ev[i]);
        }
        err = sqrt(err / n);
        steps += 1;
        if (err <= 1.0) {
            /* a step aimed at t1 ends there; t + (t1 - t) can round an ulp short */
            tn = h == t1 - t ? t1 : t + h;
            for (; done < nstops && direction * (tn - stops[done]) > 0; done++)
                dense(stops[done], t, h, y, y5, k, n, rows + done * n);
            *nrows = done;
            t = tn;
            for (i = 0; i < n; i++) {
                y[i] = y5[i];
                k[0][i] = k[6][i];  /* FSAL */
            }
            *err_accum += maxcomp;
            if (direction * (t - t1) >= 0) {
                *nsteps = steps;
                return STATUS_OK;
            }
        }
        factor = 0.9 * pow(err + 1e-300, -0.2);
        if (!(factor > 0.2))  /* a NaN error shrinks the step, as in _refkernels */
            factor = 0.2;
        if (factor > 5.0)
            factor = 5.0;
        h = h * factor;
    }
    *nsteps = steps;
    return STATUS_MAX_STEPS;
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
    if (d == 0 || n % d != 0) {
        PyErr_Format(PyExc_ValueError, "V0 of size %zd does not split into %zd rows", n, d);
        goto done;
    }
    /* a 1-D V0 comes back 1-D, anything else as d x ncols */
    dims[0] = PyArray_NDIM(V0) == 1 ? n : d;
    dims[1] = n / d;
    out = (PyArrayObject *)PyArray_SimpleNew(PyArray_NDIM(V0) == 1 ? 1 : 2, dims, NPY_DOUBLE);
    if (!out || !(work = malloc((10 * n + 6 * d) * sizeof(double)))) {
        PyErr_NoMemory();
        goto done;
    }
    /* work: DP45 stages | c0 c1 eps | g dg eg */
    vec = work + 10 * n;
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
    dims[0] = nt;
    dims[1] = n;
    out = (PyArrayObject *)PyArray_SimpleNew(2, dims, NPY_DOUBLE);
    if (!out || !(work = malloc((10 * n + 3 * d + nt) * sizeof(double)))) {
        PyErr_NoMemory();
        goto done;
    }
    /* work: DP45 stages | x0 v0 (the state y) | eps | t_grid */
    y = work + 10 * n;
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
    "Compiled Dormand-Prince 5(4) kernels; see _refkernels for the contract.",
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
