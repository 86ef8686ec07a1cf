"""Exact model of the float reference pipeline, the tests' oracle for its pixels.

The orthonormal 8-point DCT has entries C[k, i] = s_k cos((2i + 1) k pi/16), with
s_0 = 1/sqrt(8) = cos(4 pi/16) / 2 and s_k = 1/2 above. So 2 C[k, i] is plus or
minus one of b_q = cos(q pi/16), q = 0..7. These form a basis of Q(cos pi/16) over
Q: b_q = T_q(b_1) for the Chebyshev polynomial T_q, and b_1 has degree 8. Products
follow 2 b_p b_q = cos((p - q) pi/16) + cos((p + q) pi/16), so every value of a
masked block, sum over kept (k, l) of C[k, i] C[l, j] F[k, l] with F = C x C^T, has
integer coordinates over the b_q once scaled by 128. A value is rational exactly
where its coordinates on b_1 .. b_7 are 0. The pixel is floor(v + 1/2) clipped to
0..255: in integers where v is rational, from a float64 estimate where v lies
clearly away from a half-integer, and otherwise in decimal arithmetic at rising
precision. Nothing here is shared with arsc.dct.
"""

import decimal

import numpy as np

N = 8
SCALE = 128  # every kernel coordinate is an integer over it


def cos_sixteenths(q):
    """[8] integer coordinates of cos(q pi/16) over b_0 .. b_7, for any integer q."""
    q = q % 32
    q = min(q, 32 - q)  # cos is even with period 32 sixteenths
    out = np.zeros(N, dtype=np.int64)
    if q < 8:
        out[q] = 1
    elif q > 8:
        out[16 - q] = -1  # cos(q pi/16) = -cos((16 - q) pi/16)
    return out


# TIMES[p, q] is 2 b_p b_q over b_0 .. b_7
TIMES = np.array([[cos_sixteenths(p - q) + cos_sixteenths(p + q) for q in range(N)]
                  for p in range(N)])
# HALVES[k, i]: 2 C[k, i] over b_0 .. b_7
HALVES = np.array([[cos_sixteenths(4) if k == 0 else cos_sixteenths((2 * i + 1) * k)
                    for i in range(N)] for k in range(N)])


def times(a, b):
    """2 a b of elements [..., 8] and [..., 8] over b_0 .. b_7, broadcast."""
    return np.einsum("...p,...q,pqr->...r", a, b, TIMES)


def kernel(mask):
    """[i, j, m, n, 8]: SCALE times the exact weight of pixel (m, n) in value (i, j)
    of a block under an 8x8 0/1 mask, in integers over b_0 .. b_7."""
    # 8 C[k, i] C[k, m] = 2 (2 C[k, i]) (2 C[k, m]), [k, i, m, 8]
    pair = times(HALVES[:, :, None], HALVES[:, None, :])
    masked = np.einsum("kl,kimp->limp", np.asarray(mask, dtype=np.int64), pair)
    # 128 C C C C = 2 (8 C C)(8 C C)
    return np.einsum("limp,ljnq,pqr->ijmnr", masked, pair, TIMES, optimize=True)


def cosines(prec):
    """b_0 .. b_7 in decimal, to prec digits and more, from half-angle square roots."""
    with decimal.localcontext() as ctx:
        ctx.prec = prec + 10
        two = decimal.Decimal(2)
        r2 = two.sqrt()                     # 2 cos(4 pi/16)
        r2p, r2m = (two + r2).sqrt(), (two - r2).sqrt()  # 2 cos(2 pi/16), 2 cos(6 pi/16)
        twice = [two, (two + r2p).sqrt(), r2p, (two + r2m).sqrt(), r2,
                 (two - r2m).sqrt(), r2m, (two - r2p).sqrt()]
        return [t / 2 for t in twice]


def _floor_half_up(coords):
    """floor(v + 1/2) of an irrational v = coords . b / SCALE, in decimal."""
    coords = [int(c) for c in coords]
    size = sum(abs(c) for c in coords) + SCALE
    prec = 50
    while True:
        with decimal.localcontext() as ctx:
            ctx.prec = prec
            v = sum(c * b for c, b in zip(coords, cosines(prec))) / SCALE + decimal.Decimal(0.5)
            k = int(v.to_integral_value(rounding=decimal.ROUND_FLOOR))
            slack = size * decimal.Decimal(10) ** (5 - prec)
            if slack < v - k < 1 - slack:
                return k
        prec *= 2


def values(pixels, mask):
    """[H, W, 8] integer coordinates of SCALE times the exact masked value of every
    pixel of an image edge-padded to 8x8 blocks, for the padded raster."""
    h, w = pixels.shape
    padded = np.pad(pixels, ((0, -h % N), (0, -w % N)), mode="edge").astype(np.int64)
    bh, bw = padded.shape[0] // N, padded.shape[1] // N
    blocks = padded.reshape(bh, N, bw, N).transpose(0, 2, 1, 3).reshape(bh * bw, N * N)
    k = kernel(mask).transpose(2, 3, 0, 1, 4).reshape(N * N, -1)  # [m n, i j r]
    # integer-valued float64 sums below 2**53 are exact in any order
    assert 255 * np.abs(k).sum(axis=0).max() < 2 ** 53
    v = np.rint(blocks.astype(np.float64) @ k.astype(np.float64)).astype(np.int64)
    return v.reshape(bh, bw, N, N, N).transpose(0, 2, 1, 3, 4).reshape(bh * N, bw * N, N)


def reference_pixels(pixels, mask):
    """The exact reference: clip(floor(v + 1/2), 0, 255) of each pixel's exact masked
    value v, as uint8 of the image's shape."""
    h, w = pixels.shape
    v = values(pixels, mask)[:h, :w].reshape(-1, N)
    approx = v.astype(np.float64) @ np.array([float(b) for b in cosines(20)]) / SCALE + 0.5
    out = np.floor(approx).astype(np.int64)
    rational = ~v[:, 1:].any(axis=1)
    out[rational] = (v[rational, 0] + SCALE // 2) // SCALE  # floor in integers
    # an irrational estimate errs by less than 2**-52 of its terms' magnitudes and of
    # its sum, far less than this; one within it of an integer is decided in decimal
    near = np.abs(approx - np.rint(approx)) < 1e-12 + 1e-14 * np.abs(v).sum(axis=1)
    for f in np.flatnonzero(near & ~rational):
        out[f] = _floor_half_up(v[f])
    return np.clip(out, 0, 255).astype(np.uint8).reshape(h, w)
