/* Compiled digit-array kernels.

   Function-for-function twin of `_pykernels`: same canonical
   little-endian digit tuples in and out, same digit-serial algorithms,
   bit-identical results.  Digits fit comfortably in 64-bit words
   (base <= MAX_BASE; `Natural` uses at most 256), so every column
   accumulator and carry stays well inside u64 range.  The buffer sizes
   below rely on that and on every digit being below the base, so unlike
   the pure twin, which trusts the `Natural` boundary, this one raises
   ValueError on a base outside 2..MAX_BASE, or on a digit not below its
   base, before any digit is used.

   As in the pure twin, every divider keeps its partial remainder in a
   fixed-width window and changes it only by window_sub, one borrow sweep
   of a row padded to the window's width.  Here the window slides down the
   dividend's own buffer, so no step moves digits.

   A plain CPython extension, written by hand against the C API (see
   "Extending Python with C or C++" in the Python documentation).
   `setup.py` builds it as an optional extension: a failed compile warns
   and leaves the package on the pure twin.  Build it in place with
   `python3 setup.py build_ext --inplace`.  Every buffer comes from
   PyMem_*, so tracemalloc sees a leaked one. */

#define PY_SSIZE_T_CLEAN
#include <Python.h>

typedef unsigned long long u64;

/* Column sums of n products of digits below 2**16 stay below n * 2**32,
   which no tuple that fits in memory can push past u64. */
#define MAX_BASE ((u64)1 << 16)

/* --- digit buffers ------------------------------------------------------- */

/* A zeroed buffer of n digits (room for one at least), or NULL with
   MemoryError set. */
static u64 *
alloc_digits(Py_ssize_t n)
{
    u64 *p = PyMem_Calloc(n > 0 ? (size_t)n : 1, sizeof(u64));
    if (p == NULL)
        PyErr_NoMemory();
    return p;
}

/* "O&" converter: a non-negative int that fits in u64.  A negative value
   raises OverflowError, a non-int TypeError. */
static int
as_u64(PyObject *obj, void *out)
{
    u64 v = PyLong_AsUnsignedLongLong(obj);
    if (v == (u64)-1 && PyErr_Occurred())
        return 0;
    *(u64 *)out = v;
    return 1;
}

/* "O&" converter: a base in 2..MAX_BASE, else ValueError. */
static int
as_base(PyObject *obj, void *out)
{
    if (!as_u64(obj, out))
        return 0;
    if (*(u64 *)out < 2 || *(u64 *)out > MAX_BASE) {
        PyErr_Format(PyExc_ValueError, "base must be in 2..%llu", MAX_BASE);
        return 0;
    }
    return 1;
}

/* A digit below `base`, else 0 with an error set. */
static int
as_digit(PyObject *obj, u64 base, u64 *out)
{
    if (!as_u64(obj, out))
        return 0;
    if (*out < base)
        return 1;
    PyErr_Format(PyExc_ValueError, "digit %llu is not below base %llu", *out,
                 base);
    return 0;
}

/* The digits of a tuple, each below `base`, in a fresh buffer with `spare`
   zeroed slots after them, or NULL with an error set. */
static u64 *
from_tuple(PyObject *tuple, Py_ssize_t spare, u64 base)
{
    Py_ssize_t i, n = PyTuple_GET_SIZE(tuple);
    u64 *p = alloc_digits(n + spare);
    for (i = 0; p != NULL && i < n; i++) {
        if (!as_digit(PyTuple_GET_ITEM(tuple, i), base, &p[i])) {
            PyMem_Free(p);
            p = NULL;
        }
    }
    return p;
}

static PyObject *
to_tuple(const u64 *a, Py_ssize_t n)
{
    Py_ssize_t i;
    PyObject *out = PyTuple_New(n);
    for (i = 0; out != NULL && i < n; i++) {
        PyObject *d = PyLong_FromUnsignedLongLong(a[i]);
        if (d == NULL)
            Py_CLEAR(out);
        else
            PyTuple_SET_ITEM(out, i, d);
    }
    return out;
}

/* --- digit primitives ---------------------------------------------------- */

static Py_ssize_t
trim(const u64 *a, Py_ssize_t n)
{
    while (n > 0 && a[n - 1] == 0)
        n--;
    return n;
}

/* A window is a fixed-width run of w little-endian digits; a < b? */
static int
window_less(const u64 *a, const u64 *b, Py_ssize_t w)
{
    while (w-- > 0) {
        if (a[w] != b[w])
            return a[w] < b[w];
    }
    return 0;
}

/* a -= b, one borrow sweep from the low end; a borrow out of the top is
   dropped, so the window wraps like a fixed-width register.  No branch
   depends on the digits: with digits below 2**16, a - b - borrow wraps in
   u64 exactly when it is negative, so its top bit is the next borrow, and
   base & -borrow adds base back only then (Hacker's Delight, 2nd ed.,
   section 2-16). */
static void
window_sub(u64 *a, const u64 *b, Py_ssize_t w, u64 base)
{
    u64 borrow = 0, t;
    Py_ssize_t i;
    for (i = 0; i < w; i++) {
        t = a[i] - b[i] - borrow;
        borrow = t >> 63;
        a[i] = t + (base & -borrow);
    }
}

/* dst = src * factor (single digit), all n + 1 digits, the carry last even
   when it is zero; dst may be src.  The carry stays below base, since
   (base-1)**2 + base-1 < base**2. */
static void
scale_into(const u64 *src, Py_ssize_t n, u64 factor, u64 base, u64 *dst)
{
    u64 carry = 0, t;
    Py_ssize_t i;
    for (i = 0; i < n; i++) {
        t = src[i] * factor + carry;
        dst[i] = t % base;
        carry = t / base;
    }
    dst[n] = carry;
}

/* a //= divisor in place, top digit first; returns the remainder.  The
   divisor, the base and each digit are at most 2**16, so every partial
   r * base + a[i] stays below 2**32. */
static u64
short_divide(u64 *a, Py_ssize_t n, u64 divisor, u64 base)
{
    u64 r = 0, t;
    while (n-- > 0) {
        t = r * base + a[n];
        a[n] = t / divisor;
        r = t % divisor;
    }
    return r;
}

/* --- kernels ------------------------------------------------------------- */

/* The multipliers share everything but their digit loop, which writes the
   product of x (m digits) and y (n digits) into the zeroed out[m + n] and
   returns its untrimmed length.  base comes by value so that the compiler
   may keep it in a register and take t % base and t / base from one
   division. */
typedef Py_ssize_t (*product_fn)(const u64 *x, Py_ssize_t m, const u64 *y,
                                 Py_ssize_t n, u64 base, u64 *out);

/* Turn the ncols column sums in out into digits, left to right, and
   return the product's untrimmed length. */
static Py_ssize_t
resolve_carries(u64 *out, Py_ssize_t ncols, u64 base)
{
    u64 carry = 0, t;
    Py_ssize_t i;
    for (i = 0; i < ncols; i++) {
        t = out[i] + carry;
        out[i] = t % base;
        carry = t / base;
    }
    while (carry) {
        out[ncols++] = carry % base;
        carry /= base;
    }
    return ncols;
}

/* Column sums for every digit diagonal of x and y.  A square (y == x)
   takes the duplex (Dwandwa-yoga) sums instead: column c sums each pair of
   distinct digits once, doubled, plus x[c/2]**2 on even columns.  These
   are the same column sums from about half the digit products, so they
   keep the u64 bound above. */
static Py_ssize_t
vedic_product(const u64 *x, Py_ssize_t m, const u64 *y, Py_ssize_t n,
              u64 base, u64 *out)
{
    Py_ssize_t i, j;
    u64 xi;
    for (i = 0; i < m; i++) {
        xi = x[i];
        if (xi == 0)
            continue;
        j = 0;
        if (y == x) {
            out[2 * i] += xi * xi;
            xi *= 2;
            j = i + 1;
        }
        for (; j < n; j++)
            out[i + j] += xi * y[j];
    }
    return resolve_carries(out, m + n - 1, base);
}

static Py_ssize_t
shift_add_product(const u64 *x, Py_ssize_t m, const u64 *y, Py_ssize_t n,
                  u64 base, u64 *out)
{
    Py_ssize_t i, j, k;
    u64 d, carry, t;
    for (j = 0; j < n; j++) {
        d = y[j];
        if (d == 0)
            continue;
        carry = 0;
        for (i = 0; i < m; i++) {
            t = out[i + j] + x[i] * d + carry;
            out[i + j] = t % base;
            carry = t / base;
        }
        for (k = j + m; carry; k++) {
            t = out[k] + carry;
            out[k] = t % base;
            carry = t / base;
        }
    }
    return m + n;
}

/* A square (xs is ys) converts its operand once and hands the product the
   same buffer twice. */
static PyObject *
multiply(PyObject *args, const char *format, product_fn product)
{
    PyObject *xs, *ys, *result = NULL;
    u64 base, *x = NULL, *y = NULL, *out = NULL;
    Py_ssize_t m, n;

    if (!PyArg_ParseTuple(args, format, &PyTuple_Type, &xs, &PyTuple_Type, &ys,
                          as_base, &base))
        return NULL;
    m = PyTuple_GET_SIZE(xs);
    n = PyTuple_GET_SIZE(ys);
    if (m == 0 || n == 0)
        return PyTuple_New(0);
    if ((x = from_tuple(xs, 0, base))
        && (y = ys == xs ? x : from_tuple(ys, 0, base))
        && (out = alloc_digits(m + n)))
        result = to_tuple(out, trim(out, product(x, m, y, n, base, out)));
    if (y != x)
        PyMem_Free(y);
    PyMem_Free(x);
    PyMem_Free(out);
    return result;
}

PyDoc_STRVAR(mul_vedic_doc,
"mul_vedic(xs, ys, base, /)\n--\n\n"
"Cross-product multiplication: column sums for every digit diagonal,\n"
"then a single left-to-right carry-resolution sweep.  A square (xs is ys)\n"
"takes its column sums by the duplex rule: each pair of distinct digits\n"
"once, doubled, plus the middle digit's square on even columns.");

static PyObject *
mul_vedic(PyObject *self, PyObject *args)
{
    return multiply(args, "O!O!O&:mul_vedic", vedic_product);
}

PyDoc_STRVAR(mul_shift_add_doc,
"mul_shift_add(xs, ys, base, /)\n--\n\n"
"Row-wise schoolbook multiplication: one shifted digit-scaled addend\n"
"per multiplier digit, accumulated as it goes.");

static PyObject *
mul_shift_add(PyObject *self, PyObject *args)
{
    return multiply(args, "O!O!O&:mul_shift_add", shift_add_product);
}

PyDoc_STRVAR(div_straight_doc,
"div_straight(xs, ys, base, want_trace=False, /)\n--\n\n"
"Straight (at-sight) division; see the pure twin for the full story.\n"
"The partial is a window of len(ys) + 1 digits that slides down the\n"
"scaled dividend; each step changes it by one borrow sweep of the row\n"
"divisor * q.  Returns (quotient, remainder, max_adjust, trace-or-None).");

static PyObject *
div_straight(PyObject *self, PyObject *args)
{
    PyObject *xs, *ys, *trace = NULL, *row, *result = NULL;
    u64 base, *X = NULL, *dy = NULL, *SUB = NULL, *Q = NULL, *R;
    u64 scale, main, K, qhat, q_est;
    Py_ssize_t M, L, k;
    int want_trace = 0, adj, max_adjust = 0, rc;

    if (!PyArg_ParseTuple(args, "O!O!O&|p:div_straight", &PyTuple_Type, &xs,
                          &PyTuple_Type, &ys, as_base, &base, &want_trace))
        return NULL;
    M = PyTuple_GET_SIZE(ys);
    L = PyTuple_GET_SIZE(xs);
    if (M == 0) {
        PyErr_SetString(PyExc_ZeroDivisionError, "division by zero");
        return NULL;
    }
    /* X has room for the scaling carry and for the first window's zero top */
    if ((want_trace && !(trace = PyList_New(0)))
        || !(dy = from_tuple(ys, 1, base)) || !(X = from_tuple(xs, 2, base))
        || !(SUB = alloc_digits(M + 1)))
        goto done;
    /* normalize both operands in place */
    scale = dy[M - 1] >= (base + 1) / 2 ? 1 : base / (dy[M - 1] + 1);
    if (scale != 1) {
        scale_into(X, L, scale, base, X);
        L = trim(X, L + 1);
        scale_into(dy, M, scale, base, dy);
        if (trim(dy, M + 1) != M) {
            PyErr_SetString(PyExc_AssertionError,
                            "normalization must not grow the divisor");
            goto done;
        }
    }
    if (L < M) {
        result = Py_BuildValue("(NNiO)", PyTuple_New(0), Py_NewRef(xs), 0,
                               trace ? trace : Py_None);
        goto done;
    }
    main = dy[M - 1];
    if (!(Q = alloc_digits(L - M + 1)))
        goto done;
    /* At step k the partial is the window R = X[k .. k+M]; its top digit
       is zero once the step is done, so the next window, one place down,
       is the partial times base plus the next dividend digit. */
    for (k = L - M; k >= 0; k--) {
        R = X + k;
        K = R[M] * base + R[M - 1];
        qhat = K / main;
        if (qhat > base - 1)
            qhat = base - 1;
        q_est = qhat;
        scale_into(dy, M, qhat, base, SUB);
        for (adj = 0; window_less(R, SUB, M + 1); adj++) {
            qhat--;
            window_sub(SUB, dy, M + 1, base);
        }
        window_sub(R, SUB, M + 1, base);
        Q[k] = qhat;
        if (adj > max_adjust)
            max_adjust = adj;
        if (want_trace) {
            row = Py_BuildValue("(nKKiKK)", L - M + 1 - k, K, q_est, adj, qhat,
                                K - main * qhat);
            rc = row ? PyList_Append(trace, row) : -1;
            Py_XDECREF(row);
            if (rc < 0)
                goto done;
        }
    }
    /* de-scale the remainder; exact by construction */
    if (scale != 1 && short_divide(X, M + 1, scale, base) != 0) {
        PyErr_SetString(PyExc_AssertionError,
                        "scaled remainder must divide exactly");
        goto done;
    }
    result = Py_BuildValue("(NNiO)", to_tuple(Q, trim(Q, L - M + 1)),
                           to_tuple(X, trim(X, M + 1)), max_adjust,
                           trace ? trace : Py_None);
done:
    Py_XDECREF(trace);
    PyMem_Free(X);
    PyMem_Free(dy);
    PyMem_Free(SUB);
    PyMem_Free(Q);
    return result;
}

/* --- base 2 ------------------------------------------------------------- */

/* The bits a digit below base needs: the w with 2**(w-1) < base <= 2**w. */
static int
digit_width(u64 base)
{
    int w = 1;
    while (((u64)1 << w) < base)
        w++;
    return w;
}

/* The little-endian bits of the n digits in a, each below base, in a fresh
   buffer with `spare` zeroed slots after them, or NULL with MemoryError
   set; *nbits gets their trimmed count.  A power-of-two base expands by
   shift and mask; any other as `_bits_of` does: 16 bits per short division
   of a by 2**16 in place, the last pass up to 15 zeros past the value. */
static u64 *
to_bits(u64 *a, Py_ssize_t n, u64 base, Py_ssize_t spare, Py_ssize_t *nbits)
{
    int j, w = digit_width(base);
    Py_ssize_t i, k = 0;
    u64 r, *bits = alloc_digits(n * w + 15 + spare);

    if (bits == NULL)
        return NULL;
    if ((base & (base - 1)) == 0) {
        for (i = 0; i < n; i++)
            for (j = 0; j < w; j++)
                bits[k++] = a[i] >> j & 1;
    }
    else {
        while ((n = trim(a, n)) > 0) {
            r = short_divide(a, n, (u64)1 << 16, base);
            for (j = 0; j < 16; j++)
                bits[k++] = r >> j & 1;
        }
    }
    *nbits = trim(bits, k);
    return bits;
}

/* The canonical digits in base of the n little-endian bits in b, as a
   tuple, or NULL with an error set.  A power-of-two base packs them by
   shift; any other as `_digits_of` does, 16 bits per pass, top first:
   shift each digit by 16 (below 2**32), add the bits, resolve carries,
   which n + 1 slots hold. */
static PyObject *
from_bits(const u64 *b, Py_ssize_t n, u64 base)
{
    int j, w = digit_width(base);
    Py_ssize_t i, k, m = 0;
    u64 *d = alloc_digits(n + 1);
    PyObject *out;

    if (d == NULL)
        return NULL;
    if ((base & (base - 1)) == 0) {
        for (i = 0; i < n; i += w, m++)
            for (j = 0; j < w && i + j < n; j++)
                d[m] |= b[i + j] << j;
    }
    else {
        for (i = (n - 1) / 16 * 16; i >= 0; i -= 16) {
            for (k = 0; k < m; k++)
                d[k] <<= 16;
            for (j = 0; j < 16 && i + j < n; j++)
                d[0] += b[i + j] << j;
            m = resolve_carries(d, m > 1 ? m : 1, base);
        }
    }
    out = to_tuple(d, trim(d, m));
    PyMem_Free(d);
    return out;
}

/* The bit-serial dividers share one body.  Both operands are expanded to
   bits on entry and the results packed back into base on exit.  The
   partial is a window of w = ny + 2 bits in two's complement, room for
   every partial from -2y to 2y, that slides down the dividend's bit
   buffer: at step k it is X[k .. k+w), whose lowest bit is the dividend's
   bit k, and X[k+w], the bit it shifted out, is the previous partial's
   sign.  A step changes the window only by one borrow sweep of the padded
   row plus (+y) or, in non-restoring only, minus (-y): restoring never
   sets the sign bit.  The first step is k = n - ny: the ny - 1 steps above
   it hold fewer bits than y and can only yield quotient bit 0, and
   starting on the dividend's top bits with the buffer's zero sign leaves
   every later window as they would.  Both count one step per dividend
   bit: a subtract attempt (restoring) or an add or subtract
   (non-restoring), the skipped steps included. */
static PyObject *
bit_divide(PyObject *args, const char *format, int restoring)
{
    PyObject *xs, *ys, *result = NULL;
    u64 base, *xd = NULL, *yd = NULL, *X = NULL, *plus = NULL, *minus = NULL;
    u64 *Q = NULL, *R;
    Py_ssize_t n, ny, w, k;

    if (!PyArg_ParseTuple(args, format, &PyTuple_Type, &xs, &PyTuple_Type, &ys,
                          as_base, &base))
        return NULL;
    if (!(xd = from_tuple(xs, 0, base)) || !(yd = from_tuple(ys, 0, base))
        || !(plus = to_bits(yd, PyTuple_GET_SIZE(ys), base, 2, &ny)))
        goto done;
    if (ny == 0) {
        PyErr_SetString(PyExc_ZeroDivisionError, "division by zero");
        goto done;
    }
    w = ny + 2;
    if (!(X = to_bits(xd, PyTuple_GET_SIZE(xs), base, w, &n))
        || (!restoring && !(minus = alloc_digits(w)))
        || !(Q = alloc_digits(n)))
        goto done;
    if (!restoring)
        window_sub(minus, plus, w, 2);
    for (k = n - ny; k >= 0; k--) {
        R = X + k;
        if (!restoring) {
            window_sub(R, R[w] ? minus : plus, w, 2);
            Q[k] = !R[w - 1];
        }
        else if (!window_less(R, plus, w)) {
            window_sub(R, plus, w, 2);
            Q[k] = 1;
        }
    }
    if (!restoring && X[w - 1])
        window_sub(X, minus, w, 2); /* the final add-back */
    result = Py_BuildValue("(NNn)", from_bits(Q, n, base),
                           from_bits(X, w, base), n);
done:
    PyMem_Free(xd);
    PyMem_Free(yd);
    PyMem_Free(X);
    PyMem_Free(plus);
    PyMem_Free(minus);
    PyMem_Free(Q);
    return result;
}

PyDoc_STRVAR(div_restoring_doc,
"div_restoring(xs, ys, base, /)\n--\n\n"
"Bit-serial restoring division on the operands' bits, with the results\n"
"packed back into base.  The top len(y_bits) - 1 dividend bits, which\n"
"could not subtract, are preloaded.\n"
"Returns (quotient, remainder, subtract_attempts), one attempt per\n"
"dividend bit, the skipped steps included.");

static PyObject *
div_restoring(PyObject *self, PyObject *args)
{
    return bit_divide(args, "O!O!O&:div_restoring", 1);
}

PyDoc_STRVAR(div_nonrestoring_doc,
"div_nonrestoring(xs, ys, base, /)\n--\n\n"
"Bit-serial non-restoring division on the operands' bits, with the\n"
"results packed back into base.  The top len(y_bits) - 1 dividend bits,\n"
"whose partials would be negative with quotient bit 0, are preloaded.\n"
"Returns (quotient, remainder, addsub_steps), one step per dividend bit,\n"
"the skipped steps included.");

static PyObject *
div_nonrestoring(PyObject *self, PyObject *args)
{
    return bit_divide(args, "O!O!O&:div_nonrestoring", 0);
}

/* --- module -------------------------------------------------------------- */

static PyMethodDef kernel_methods[] = {
    {"mul_vedic", mul_vedic, METH_VARARGS, mul_vedic_doc},
    {"mul_shift_add", mul_shift_add, METH_VARARGS, mul_shift_add_doc},
    {"div_straight", div_straight, METH_VARARGS, div_straight_doc},
    {"div_restoring", div_restoring, METH_VARARGS, div_restoring_doc},
    {"div_nonrestoring", div_nonrestoring, METH_VARARGS, div_nonrestoring_doc},
    {NULL, NULL, 0, NULL}
};

static struct PyModuleDef kernel_module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "vedarith._ckernels",
    .m_doc = "Compiled digit-array kernels: the C twin of vedarith._pykernels.",
    .m_size = -1,
    .m_methods = kernel_methods,
};

PyMODINIT_FUNC
PyInit__ckernels(void)
{
    PyObject *m = PyModule_Create(&kernel_module);
    if (m != NULL && PyModule_AddStringConstant(m, "NAME", "compiled") < 0)
        Py_CLEAR(m);
    return m;
}
