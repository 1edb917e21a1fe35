/*
 * Native EBCOT Tier-1 coder (ITU-T T.800, Annexes C and D), both ways,
 * and the reconstruct kernel that follows the decoder (Annexes E, F).
 *
 * A direct port of the executable specification -- t1.py's
 * CodeBlockDecoder driving mq.py's MqDecoder, and CodeBlockEncoder
 * driving MqEncoder -- one implementation level down.  Same scan order,
 * same contexts, same pass truncation and pass-length marks, and the
 * same basic-operation count: +1 per MQ decision and +1 per
 * renormalisation shift, so the Fig. 1 / Table 1 cycle models read the
 * same numbers whichever kernel coded a block.
 *
 * Entry points: t1_decode_batch, t1_encode_batch and reconstruct_tile
 * (gather, inverse quantisation and inverse DWT of one tile, at the end
 * of this file).  The Python wrapper (t1_native.py) validates every
 * block's geometry before the call; the checks here are a backstop that
 * stops the batch instead of touching memory.  Reads past a codeword's
 * end yield 0xFF (spec C.2.2) and never leave the codeword; writes never
 * leave the block's slice of the decoder's output or the encoder's
 * caller-sized byte buffer.
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define MAX_SIDE 1024
#define MAX_AREA 4096
#define MAX_BITPLANES 30
/* (w + 2) * (h + 2) with w * h <= MAX_AREA and w, h <= MAX_SIDE. */
#define MAX_PADDED ((MAX_SIDE + 2) * (MAX_AREA / MAX_SIDE + 2))

/*
 * Per-sample coding state: one flag word per padded sample.  The low
 * byte says which of the eight neighbours are significant (it indexes
 * the zero-coding table directly), the next nibble holds the signs of
 * the four orthogonal ones, and the sample's own state sits above.  A
 * sample turning significant writes itself into its neighbours' words
 * (set_significant), so no coding decision ever reads a neighbour.
 */
#define SIG_N  0x001u
#define SIG_S  0x002u
#define SIG_W  0x004u
#define SIG_E  0x008u
#define SIG_NW 0x010u
#define SIG_NE 0x020u
#define SIG_SW 0x040u
#define SIG_SE 0x080u
#define NEG_N  0x100u
#define NEG_S  0x200u
#define NEG_W  0x400u
#define NEG_E  0x800u
#define NEIGHBOURS 0xFFu  /* any neighbour significant */
#define SIG 0x1000u  /* significant */
#define VIS 0x2000u  /* coded in this plane's significance pass */
#define REF 0x4000u  /* refined at least once */
#define NEG 0x8000u  /* sign: negative */

#define CTX_RUN 17
#define CTX_UNI 18
#define NUM_CONTEXTS 19

/* T.800 Table C.2: Qe, NMPS, NLPS, SWITCH. */
static const uint16_t QE[47] = {
    0x5601, 0x3401, 0x1801, 0x0AC1, 0x0521, 0x0221, 0x5601, 0x5401,
    0x4801, 0x3801, 0x3001, 0x2401, 0x1C01, 0x1601, 0x5601, 0x5401,
    0x5101, 0x4801, 0x3801, 0x3401, 0x3001, 0x2801, 0x2401, 0x2201,
    0x1C01, 0x1801, 0x1601, 0x1401, 0x1201, 0x1101, 0x0AC1, 0x09C1,
    0x08A1, 0x0521, 0x0441, 0x02A1, 0x0221, 0x0141, 0x0111, 0x0085,
    0x0049, 0x0025, 0x0015, 0x0009, 0x0005, 0x0001, 0x5601,
};
static const uint8_t NMPS[47] = {
    1, 2, 3, 4, 5, 38, 7, 8, 9, 10, 11, 12, 13, 29, 15, 16,
    17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31, 32,
    33, 34, 35, 36, 37, 38, 39, 40, 41, 42, 43, 44, 45, 45, 46,
};
static const uint8_t NLPS[47] = {
    1, 6, 9, 12, 29, 33, 6, 14, 14, 14, 17, 18, 20, 21, 14, 14,
    15, 16, 17, 18, 19, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29,
    30, 31, 32, 33, 34, 35, 36, 37, 38, 39, 40, 41, 42, 43, 46,
};
static const uint8_t SWITCH[47] = {
    1, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 1, 0,
    0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
    0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
};

/* T.800 Table D.3, indexed (h + 1) * 3 + (v + 1) with h, v in [-1, 1]. */
static const uint8_t SC_CTX[9] = {13, 12, 11, 10, 9, 10, 11, 12, 13};
static const uint8_t SC_XOR[9] = {1, 1, 1, 1, 0, 0, 0, 0, 0};

/* -- MQ decoder (context.py / mq.py) ------------------------------------- */

typedef struct {
    const uint8_t *data;
    int64_t length;
    int64_t bp;
    uint32_t a, c;
    int ct;
    int64_t ops;
    uint8_t index[NUM_CONTEXTS];
    uint8_t mps[NUM_CONTEXTS];
} Mq;

static inline uint32_t byte_at(const Mq *mq, int64_t position)
{
    return position < mq->length ? mq->data[position] : 0xFFu;
}

/* BYTEIN */
static inline void byte_in(Mq *mq)
{
    if (byte_at(mq, mq->bp) == 0xFF) {
        if (byte_at(mq, mq->bp + 1) > 0x8F) {
            mq->c += 0xFF00;
            mq->ct = 8;
        } else {
            mq->bp++;
            mq->c += byte_at(mq, mq->bp) << 9;
            mq->ct = 7;
        }
    } else {
        mq->bp++;
        mq->c += byte_at(mq, mq->bp) << 8;
        mq->ct = 8;
    }
}

/* The standard initial context states (context.py initial_contexts). */
static void init_contexts(uint8_t index[NUM_CONTEXTS], uint8_t mps[NUM_CONTEXTS])
{
    memset(index, 0, NUM_CONTEXTS);
    memset(mps, 0, NUM_CONTEXTS);
    index[0] = 4;
    index[CTX_RUN] = 3;
    index[CTX_UNI] = 46;
}

/* INITDEC, plus the standard initial context states. */
static void mq_init(Mq *mq, const uint8_t *data, int64_t length)
{
    mq->data = data;
    mq->length = length;
    mq->bp = 0;
    mq->c = byte_at(mq, 0) << 16;
    byte_in(mq);
    mq->c <<= 7;
    mq->ct -= 7;
    mq->a = 0x8000;
    mq->ops = 0;
    init_contexts(mq->index, mq->mps);
}

/* DECODE with MPS/LPS exchange and RENORMD. */
static inline int mq_decode(Mq *mq, int k)
{
    unsigned i = mq->index[k];
    uint32_t qe = QE[i];
    uint32_t a = mq->a - qe;
    uint32_t c = mq->c;
    int bit;
    mq->ops++;
    if ((c >> 16) < qe) {
        if (a < qe) {
            bit = mq->mps[k];
            mq->index[k] = NMPS[i];
        } else {
            bit = 1 - mq->mps[k];
            if (SWITCH[i])
                mq->mps[k] = (uint8_t)(1 - mq->mps[k]);
            mq->index[k] = NLPS[i];
        }
        a = qe;
    } else {
        c -= qe << 16;
        if (a & 0x8000) {
            mq->a = a;
            mq->c = c;
            return mq->mps[k];
        }
        if (a < qe) {
            bit = 1 - mq->mps[k];
            if (SWITCH[i])
                mq->mps[k] = (uint8_t)(1 - mq->mps[k]);
            mq->index[k] = NLPS[i];
        } else {
            bit = mq->mps[k];
            mq->index[k] = NMPS[i];
        }
    }
    mq->c = c;
    do {
        if (mq->ct == 0)
            byte_in(mq);
        a = (a << 1) & 0xFFFF;
        mq->c <<= 1;
        mq->ct--;
        mq->ops++;
    } while (!(a & 0x8000));
    mq->a = a;
    return bit;
}

/* -- MQ encoder (mq.py MqEncoder) ----------------------------------------- */

typedef struct {
    uint8_t *out;      /* out[0] is the sentinel, dropped at flush */
    int64_t length;    /* bytes written, sentinel included */
    int64_t capacity;  /* bytes out may hold */
    int full;          /* a byte found no room: the block must be redone */
    uint64_t c;
    uint32_t a;
    int ct;
    int64_t ops;
    uint8_t index[NUM_CONTEXTS];
    uint8_t mps[NUM_CONTEXTS];
} MqEnc;

/* Append one byte, or note that the buffer is full; never write past it. */
static inline void emit(MqEnc *e, uint64_t byte)
{
    if (e->length < e->capacity)
        e->out[e->length++] = (uint8_t)byte;
    else
        e->full = 1;
}

/* BYTEOUT, with carry into the previous byte. */
static void byte_out(MqEnc *e)
{
    uint8_t *last = e->out + e->length - 1;
    if (*last == 0xFF) {
        emit(e, (e->c >> 20) & 0xFF);
        e->c &= 0xFFFFF;
        e->ct = 7;
        return;
    }
    if (e->c < 0x8000000) {
        emit(e, (e->c >> 19) & 0xFF);
        e->c &= 0x7FFFF;
        e->ct = 8;
        return;
    }
    (*last)++;
    if (*last == 0xFF) {
        e->c &= 0x7FFFFFF;
        emit(e, (e->c >> 20) & 0xFF);
        e->c &= 0xFFFFF;
        e->ct = 7;
    } else {
        emit(e, (e->c >> 19) & 0xFF);
        e->c &= 0x7FFFF;
        e->ct = 8;
    }
}

/* INITENC into out[0..capacity), which holds at least the sentinel. */
static void mq_enc_init(MqEnc *e, uint8_t *out, int64_t capacity)
{
    e->out = out;
    e->capacity = capacity;
    e->out[0] = 0x00;  /* CT=12 spacer bits keep carries out of it */
    e->length = 1;
    e->full = 0;
    e->a = 0x8000;
    e->c = 0;
    e->ct = 12;
    e->ops = 0;
    init_contexts(e->index, e->mps);
}

/* RENORME */
static void renorm_enc(MqEnc *e)
{
    do {
        e->a = (e->a << 1) & 0xFFFF;
        e->c <<= 1;
        e->ct--;
        e->ops++;
        if (e->ct == 0)
            byte_out(e);
    } while (!(e->a & 0x8000));
}

/* ENCODE with CODEMPS / CODELPS.  Deliberately not inline: inlining it
 * at every call site doubles the library's compile time, which every
 * fresh cache pays, and does not make encoding faster. */
static void mq_encode(MqEnc *e, int bit, int k)
{
    unsigned i = e->index[k];
    uint32_t qe = QE[i];
    e->ops++;
    e->a -= qe;
    if (bit == e->mps[k]) {
        if (e->a & 0x8000) {
            e->c += qe;
            return;
        }
        if (e->a < qe)
            e->a = qe;
        else
            e->c += qe;
        e->index[k] = NMPS[i];
    } else {
        if (e->a < qe)
            e->c += qe;
        else
            e->a = qe;
        if (SWITCH[i])
            e->mps[k] = (uint8_t)(1 - e->mps[k]);
        e->index[k] = NLPS[i];
    }
    renorm_enc(e);
}

/* FLUSH with SETBITS; returns the segment length after the sentinel,
 * without a terminal 0xFF. */
static int64_t mq_flush(MqEnc *e)
{
    uint64_t temp = e->c + e->a;
    e->c |= 0xFFFF;
    if (e->c >= temp)
        e->c -= 0x8000;
    e->c <<= e->ct;
    byte_out(e);
    e->c <<= e->ct;
    byte_out(e);
    int64_t length = e->length - 1;
    if (length > 0 && e->out[e->length - 1] == 0xFF)
        length--;
    return length;
}

/* -- context modelling (context.py) --------------------------------------- */

static int zc_lh(int h, int v, int d)
{
    if (h == 2)
        return 8;
    if (h == 1)
        return v >= 1 ? 7 : (d >= 1 ? 6 : 5);
    if (v == 2)
        return 4;
    if (v == 1)
        return 3;
    if (d >= 2)
        return 2;
    return d == 1 ? 1 : 0;
}

static int zc_hh(int h, int v, int d)
{
    int hv = h + v;
    if (d >= 3)
        return 8;
    if (d == 2)
        return hv >= 1 ? 7 : 6;
    if (d == 1)
        return hv >= 2 ? 5 : (hv == 1 ? 4 : 3);
    if (hv >= 2)
        return 2;
    return hv == 1 ? 1 : 0;
}

static inline int has(uint32_t flags, uint32_t bit)
{
    return (flags & bit) != 0;
}

/* Contribution of one orthogonal neighbour to the sign context. */
static inline int contribution(uint32_t flags, uint32_t sig, uint32_t neg)
{
    if (!(flags & sig))
        return 0;
    return (flags & neg) ? -1 : 1;
}

static inline int clip(int value)
{
    return value < -1 ? -1 : (value > 1 ? 1 : value);
}

/* The sign table's index: orthogonal significance in the low nibble,
 * orthogonal signs in the high one. */
static inline unsigned sign_index(uint32_t flags)
{
    return (flags & 0x0Fu) | ((flags >> 4) & 0xF0u);
}

/* Context tables over the flag word: zero coding per orientation
 * (0..3 = LL, HL, LH, HH), indexed by the neighbour byte; sign coding
 * as ctx << 1 | xor, indexed by sign_index. */
typedef struct {
    uint8_t zc[4][256];
    uint8_t sc[256];
} Tables;

static void build_tables(Tables *t)
{
    for (uint32_t n = 0; n < 256; n++) {
        int h = has(n, SIG_W) + has(n, SIG_E);
        int v = has(n, SIG_N) + has(n, SIG_S);
        int d = has(n, SIG_NW) + has(n, SIG_NE) + has(n, SIG_SW)
              + has(n, SIG_SE);
        t->zc[0][n] = (uint8_t)zc_lh(h, v, d);
        t->zc[1][n] = (uint8_t)zc_lh(v, h, d);  /* HL swaps H and V */
        t->zc[2][n] = (uint8_t)zc_lh(h, v, d);
        t->zc[3][n] = (uint8_t)zc_hh(h, v, d);
        uint32_t flags = (n & 0x0Fu) | ((n & 0xF0u) << 4);
        int hc = clip(contribution(flags, SIG_W, NEG_W)
                      + contribution(flags, SIG_E, NEG_E));
        int vc = clip(contribution(flags, SIG_N, NEG_N)
                      + contribution(flags, SIG_S, NEG_S));
        int at = (hc + 1) * 3 + (vc + 1);
        t->sc[n] = (uint8_t)(SC_CTX[at] << 1 | SC_XOR[at]);
    }
}

/* -- one code block: shared state and context modelling ------------------ */

typedef struct {
    Mq mq;
    MqEnc enc;
    int w, h, stride;
    const uint8_t *zc;  /* the block orientation's zero-coding table */
    const uint8_t *sc;  /* sign contexts, ctx << 1 | xor */
    uint32_t flags[MAX_PADDED];
    uint32_t magnitude[MAX_PADDED];
} Block;

/* Sample p turns significant: its own word gains SIG (and NEG), and
 * each neighbour's word records it.  The padding ring is written but
 * never coded, so edges need no tests. */
static inline void set_significant(uint32_t *f, int p, int stride,
                                   int negative)
{
    f[p - stride - 1] |= SIG_SE;
    f[p - stride] |= SIG_S | (negative ? NEG_S : 0);
    f[p - stride + 1] |= SIG_SW;
    f[p - 1] |= SIG_E | (negative ? NEG_E : 0);
    f[p] |= SIG | (negative ? NEG : 0);
    f[p + 1] |= SIG_W | (negative ? NEG_W : 0);
    f[p + stride - 1] |= SIG_NE;
    f[p + stride] |= SIG_N | (negative ? NEG_N : 0);
    f[p + stride + 1] |= SIG_NW;
}

/* Run mode: four samples, none significant or visited, with no
 * significant neighbour. */
static inline int run_mode(const uint32_t *f, int p, int stride)
{
    return !((f[p] | f[p + stride] | f[p + 2 * stride] | f[p + 3 * stride])
             & (SIG | VIS | NEIGHBOURS));
}

/* -- decoding one code block (t1.py CodeBlockDecoder) ---------------------- */

/* Each pass decodes through a local copy of the MQ state, which no
 * store to the block's arrays can alias. */

static inline int decode_sign(Mq *mq, const uint8_t *sc, uint32_t flags)
{
    unsigned slot = sc[sign_index(flags)];
    return mq_decode(mq, slot >> 1) ^ (slot & 1);
}

static void significance_pass(Block *b, uint32_t bit_value)
{
    Mq mq = b->mq;
    uint32_t *f = b->flags;
    int stride = b->stride;
    for (int top = 0; top < b->h; top += 4) {
        int rows = b->h - top < 4 ? b->h - top : 4;
        for (int x = 0; x < b->w; x++) {
            int p = (top + 1) * stride + x + 1;
            for (int k = 0; k < rows; k++, p += stride) {
                uint32_t flags = f[p];
                if ((flags & SIG) || !(flags & NEIGHBOURS))
                    continue;
                if (mq_decode(&mq, b->zc[flags & NEIGHBOURS])) {
                    b->magnitude[p] |= bit_value;
                    set_significant(f, p, stride,
                                    decode_sign(&mq, b->sc, flags));
                }
                f[p] |= VIS;
            }
        }
    }
    b->mq = mq;
}

static void refinement_pass(Block *b, uint32_t bit_value)
{
    Mq mq = b->mq;
    uint32_t *f = b->flags;
    int stride = b->stride;
    for (int top = 0; top < b->h; top += 4) {
        int rows = b->h - top < 4 ? b->h - top : 4;
        for (int x = 0; x < b->w; x++) {
            int p = (top + 1) * stride + x + 1;
            for (int k = 0; k < rows; k++, p += stride) {
                uint32_t flags = f[p];
                if ((flags & (SIG | VIS)) != SIG)
                    continue;
                int ctx = (flags & REF) ? 16
                        : 14 + ((flags & NEIGHBOURS) != 0);
                if (mq_decode(&mq, ctx))
                    b->magnitude[p] |= bit_value;
                f[p] = flags | REF;
            }
        }
    }
    b->mq = mq;
}

/* The cleanup pass also clears each sample's VIS for the next plane. */
static void cleanup_pass(Block *b, uint32_t bit_value)
{
    Mq mq = b->mq;
    uint32_t *f = b->flags;
    int stride = b->stride;
    for (int top = 0; top < b->h; top += 4) {
        int rows = b->h - top < 4 ? b->h - top : 4;
        for (int x = 0; x < b->w; x++) {
            int p = (top + 1) * stride + x + 1;
            int k = 0;
            if (rows == 4 && run_mode(f, p, stride)) {
                if (!mq_decode(&mq, CTX_RUN))
                    continue;
                k = mq_decode(&mq, CTX_UNI) << 1;
                k |= mq_decode(&mq, CTX_UNI);
                p += k * stride;
                b->magnitude[p] |= bit_value;
                set_significant(f, p, stride, decode_sign(&mq, b->sc, f[p]));
                k++;
                p += stride;
            }
            for (; k < rows; k++, p += stride) {
                uint32_t flags = f[p];
                if (flags & (SIG | VIS)) {
                    f[p] = flags & ~VIS;
                    continue;
                }
                if (mq_decode(&mq, b->zc[flags & NEIGHBOURS])) {
                    b->magnitude[p] |= bit_value;
                    set_significant(f, p, stride,
                                    decode_sign(&mq, b->sc, flags));
                }
            }
        }
    }
    b->mq = mq;
}

static int64_t decode_block(Block *b, const uint8_t *data, int64_t length,
                            int planes, int64_t passes_limit, int32_t *out)
{
    int size = b->w * b->h;
    if (planes <= 0) {
        memset(out, 0, (size_t)size * sizeof *out);
        return 0;
    }
    int padded = b->stride * (b->h + 2);
    memset(b->flags, 0, (size_t)padded * sizeof *b->flags);
    memset(b->magnitude, 0, (size_t)padded * sizeof *b->magnitude);
    mq_init(&b->mq, data, length);
    int64_t passes = 0;
    for (int plane = planes - 1; plane >= 0; plane--) {
        uint32_t bit_value = 1u << plane;
        if (plane != planes - 1) {
            if (passes >= passes_limit)
                break;
            significance_pass(b, bit_value);
            if (++passes >= passes_limit)
                break;
            refinement_pass(b, bit_value);
            passes++;
        }
        if (passes >= passes_limit)
            break;
        cleanup_pass(b, bit_value);
        passes++;
    }
    for (int y = 0; y < b->h; y++) {
        for (int x = 0; x < b->w; x++) {
            int p = (y + 1) * b->stride + x + 1;
            int32_t value = (int32_t)b->magnitude[p];
            out[y * b->w + x] = (b->flags[p] & NEG) ? -value : value;
        }
    }
    return b->mq.ops;
}

/* -- encoding one code block (t1.py CodeBlockEncoder) ---------------------- */

static inline void encode_sign(Block *b, uint32_t flags)
{
    unsigned slot = b->sc[sign_index(flags)];
    mq_encode(&b->enc, ((flags & NEG) != 0) ^ (slot & 1), slot >> 1);
}

static void encode_significance_pass(Block *b, uint32_t bit_mask)
{
    uint32_t *f = b->flags;
    int stride = b->stride;
    for (int top = 0; top < b->h; top += 4) {
        int rows = b->h - top < 4 ? b->h - top : 4;
        for (int x = 0; x < b->w; x++) {
            int p = (top + 1) * stride + x + 1;
            for (int k = 0; k < rows; k++, p += stride) {
                uint32_t flags = f[p];
                if ((flags & SIG) || !(flags & NEIGHBOURS))
                    continue;
                int bit = (b->magnitude[p] & bit_mask) != 0;
                mq_encode(&b->enc, bit, b->zc[flags & NEIGHBOURS]);
                if (bit) {
                    encode_sign(b, flags);
                    set_significant(f, p, stride, (flags & NEG) != 0);
                }
                f[p] |= VIS;
            }
        }
    }
}

static void encode_refinement_pass(Block *b, uint32_t bit_mask)
{
    uint32_t *f = b->flags;
    int stride = b->stride;
    for (int top = 0; top < b->h; top += 4) {
        int rows = b->h - top < 4 ? b->h - top : 4;
        for (int x = 0; x < b->w; x++) {
            int p = (top + 1) * stride + x + 1;
            for (int k = 0; k < rows; k++, p += stride) {
                uint32_t flags = f[p];
                if ((flags & (SIG | VIS)) != SIG)
                    continue;
                int ctx = (flags & REF) ? 16
                        : 14 + ((flags & NEIGHBOURS) != 0);
                mq_encode(&b->enc, (b->magnitude[p] & bit_mask) != 0, ctx);
                f[p] = flags | REF;
            }
        }
    }
}

/* The cleanup pass also clears each sample's VIS for the next plane. */
static void encode_cleanup_pass(Block *b, uint32_t bit_mask)
{
    uint32_t *f = b->flags;
    int stride = b->stride;
    for (int top = 0; top < b->h; top += 4) {
        int rows = b->h - top < 4 ? b->h - top : 4;
        for (int x = 0; x < b->w; x++) {
            int p = (top + 1) * stride + x + 1;
            int k = 0;
            if (rows == 4 && run_mode(f, p, stride)) {
                while (k < 4 && !(b->magnitude[p] & bit_mask)) {
                    k++;
                    p += stride;
                }
                if (k == 4) {
                    mq_encode(&b->enc, 0, CTX_RUN);
                    continue;
                }
                mq_encode(&b->enc, 1, CTX_RUN);
                mq_encode(&b->enc, (k >> 1) & 1, CTX_UNI);
                mq_encode(&b->enc, k & 1, CTX_UNI);
                encode_sign(b, f[p]);
                set_significant(f, p, stride, (f[p] & NEG) != 0);
                k++;
                p += stride;
            }
            for (; k < rows; k++, p += stride) {
                uint32_t flags = f[p];
                if (flags & (SIG | VIS)) {
                    f[p] = flags & ~VIS;
                    continue;
                }
                int bit = (b->magnitude[p] & bit_mask) != 0;
                mq_encode(&b->enc, bit, b->zc[flags & NEIGHBOURS]);
                if (bit) {
                    encode_sign(b, flags);
                    set_significant(f, p, stride, (flags & NEG) != 0);
                }
            }
        }
    }
}

#define MAX_PASSES (3 * MAX_BITPLANES - 2)

/* Fields of one block's row in the encoder's int64 ``results`` table. */
enum { R_START, R_LENGTH, R_PASSES, R_PLANES, R_OPS, R_PASS_LENGTHS,
       R_FIELDS = R_PASS_LENGTHS + MAX_PASSES };

/* Load the block's sign-magnitude state from ``in`` (row-major); returns
 * its bit-plane count. */
static int load_block(Block *b, const int32_t *in)
{
    int padded = b->stride * (b->h + 2);
    uint32_t highest = 0;
    int planes = 0;
    memset(b->flags, 0, (size_t)padded * sizeof *b->flags);
    memset(b->magnitude, 0, (size_t)padded * sizeof *b->magnitude);
    for (int y = 0; y < b->h; y++) {
        for (int x = 0; x < b->w; x++) {
            int p = (y + 1) * b->stride + x + 1;
            int32_t value = in[y * b->w + x];
            uint32_t magnitude = value < 0 ? 0u - (uint32_t)value
                                           : (uint32_t)value;
            if (value < 0)
                b->flags[p] = NEG;
            b->magnitude[p] = magnitude;
            highest |= magnitude;
        }
    }
    while (highest) {
        planes++;
        highest >>= 1;
    }
    return planes;
}

/*
 * Code the loaded block into out[0..capacity) and fill its ``row``
 * (segment start relative to ``out``).  Returns the bytes used, or -1
 * when ``out`` is too small (nothing is written past it).
 */
static int64_t encode_block(Block *b, int planes, uint8_t *out,
                            int64_t capacity, int64_t *row)
{
    int64_t *lengths = row + R_PASS_LENGTHS;
    int passes = 0;
    memset(row, 0, R_FIELDS * sizeof *row);
    if (planes == 0)
        return 0;
    if (capacity < 1)
        return -1;
    mq_enc_init(&b->enc, out, capacity);
    for (int plane = planes - 1; plane >= 0; plane--) {
        uint32_t bit_mask = 1u << plane;
        /* A mark is the live bytes so far (sentinel excluded) plus
         * headroom for the bits still held in the C register. */
        if (plane != planes - 1) {
            encode_significance_pass(b, bit_mask);
            lengths[passes++] = b->enc.length - 1 + 5;
            encode_refinement_pass(b, bit_mask);
            lengths[passes++] = b->enc.length - 1 + 5;
        }
        encode_cleanup_pass(b, bit_mask);
        lengths[passes++] = b->enc.length - 1 + 5;
        if (b->enc.full)
            return -1;
    }
    int64_t length = mq_flush(&b->enc);
    if (b->enc.full)
        return -1;
    for (int k = 0; k < passes; k++)
        if (lengths[k] > length)
            lengths[k] = length;
    lengths[passes - 1] = length;
    row[R_START] = 1;
    row[R_LENGTH] = length;
    row[R_PASSES] = passes;
    row[R_PLANES] = planes;
    row[R_OPS] = b->enc.ops;
    return b->enc.length;
}

/* -- batch entry point ----------------------------------------------------- */

/* Fields of one block's row in the int64 ``meta`` table. */
enum { M_DATA, M_LENGTH, M_WIDTH, M_HEIGHT, M_ORIENT, M_PLANES, M_PASSES,
       M_OFFSET, M_FIELDS };

/*
 * Decode ``count`` blocks.  ``data`` holds every codeword back to back
 * (``data_length`` bytes); row i of ``meta`` gives block i's codeword
 * start and length in it, width, height, orientation (0..3 = LL, HL,
 * LH, HH), bit planes, pass limit, and first sample in ``out`` (a flat
 * int32 array of ``out_length`` samples).  Coefficients land row-major
 * at that offset; ``ops[i]`` receives block i's basic-op count.
 *
 * The call touches only its own rows of ``meta``/``ops``, its blocks'
 * slices of ``out`` and its own scratch, so concurrent calls on
 * disjoint rows whose blocks do not overlap in ``out`` are safe.
 *
 * Returns 0, i + 1 when block i fails the geometry backstop (blocks
 * before it are already decoded), or -1 when scratch allocation fails.
 */
int64_t t1_decode_batch(int64_t count, const uint8_t *data,
                        int64_t data_length, const int64_t *meta,
                        int32_t *out, int64_t out_length, int64_t *ops)
{
    Block *block = malloc(sizeof *block);  /* ~50 kB: off the stack */
    Tables tables;
    int64_t status = 0;
    if (block == NULL)
        return -1;
    build_tables(&tables);
    block->sc = tables.sc;
    for (int64_t i = 0; i < count; i++) {
        const int64_t *row = meta + i * M_FIELDS;
        int64_t start = row[M_DATA], length = row[M_LENGTH];
        int64_t w = row[M_WIDTH], h = row[M_HEIGHT];
        int64_t orientation = row[M_ORIENT], planes = row[M_PLANES];
        int64_t offset = row[M_OFFSET];
        if (w < 1 || w > MAX_SIDE || h < 1 || h > MAX_SIDE
                || w * h > MAX_AREA || orientation < 0 || orientation > 3
                || planes > MAX_BITPLANES || start < 0 || length < 0
                || start > data_length - length || offset < 0
                || offset > out_length - w * h) {
            status = i + 1;
            break;
        }
        block->w = (int)w;
        block->h = (int)h;
        block->stride = (int)w + 2;
        block->zc = tables.zc[orientation];
        ops[i] = decode_block(block, data + start, length, (int)planes,
                              row[M_PASSES], out + offset);
    }
    free(block);
    return status;
}

/* Fields of one block's row in the encoder's int64 ``meta`` table. */
enum { E_OFFSET, E_WIDTH, E_HEIGHT, E_ORIENT, E_FIELDS };

/* t1_encode_batch statuses besides 0 (done) and -1 (no scratch). */
enum { T1_FULL = 1, T1_REJECT = 2 };

/*
 * Encode ``count`` blocks.  Row i of ``meta`` gives block i's first
 * sample in ``coefficients`` (a flat int32 array of
 * ``coefficient_length`` samples, row-major per block), width, height
 * and orientation.  Segments land back to back in ``out``
 * (``out_capacity`` bytes); row i of ``results`` receives the segment's
 * start and length in ``out``, the pass and bit-plane counts, the
 * basic-op count and the pass lengths.  ``*done`` receives the number
 * of blocks finished.
 *
 * Returns 0 when every block is coded, T1_FULL when block ``*done``
 * found ``out`` full (resume from it with a larger buffer), T1_REJECT
 * when block ``*done`` fails the geometry or bit-plane backstop, or -1
 * when scratch allocation fails.
 */
int64_t t1_encode_batch(int64_t count, const int32_t *coefficients,
                        int64_t coefficient_length, const int64_t *meta,
                        uint8_t *out, int64_t out_capacity,
                        int64_t *results, int64_t *done)
{
    Block *block = malloc(sizeof *block);
    Tables tables;
    int64_t status = 0, position = 0;
    *done = 0;
    if (block == NULL)
        return -1;
    build_tables(&tables);
    block->sc = tables.sc;
    for (int64_t i = 0; i < count; i++) {
        const int64_t *row = meta + i * E_FIELDS;
        int64_t *result = results + i * R_FIELDS;
        int64_t offset = row[E_OFFSET];
        int64_t w = row[E_WIDTH], h = row[E_HEIGHT];
        int64_t orientation = row[E_ORIENT];
        if (w < 1 || w > MAX_SIDE || h < 1 || h > MAX_SIDE
                || w * h > MAX_AREA || orientation < 0 || orientation > 3
                || offset < 0 || offset > coefficient_length - w * h) {
            status = T1_REJECT;
            break;
        }
        block->w = (int)w;
        block->h = (int)h;
        block->stride = (int)w + 2;
        block->zc = tables.zc[orientation];
        int planes = load_block(block, coefficients + offset);
        if (planes > MAX_BITPLANES) {
            status = T1_REJECT;
            break;
        }
        int64_t used = encode_block(block, planes, out + position,
                                    out_capacity - position, result);
        if (used < 0) {
            status = T1_FULL;
            break;
        }
        result[R_START] += position;
        position += used;
        *done = i + 1;
    }
    free(block);
    return status;
}

/* ------------------------------------------------------------------ */
/*
 * Reconstruct: gather, inverse quantisation and inverse DWT of one tile
 * (T.800 Annexes E and F), a port of stages/reconstruct.py's
 * scatter_entropy and dequantise and of dwt.py's inverse.  Every sample
 * sees the specification's operations in the specification's order --
 * the vertical pass before the horizontal one, b + c * (l + r),
 * x * KAPPA and x * (1 / KAPPA), mid-point dequantisation -- and the
 * library is built with -ffp-contract=off, so no multiply-add is fused
 * and the float64 samples are bit-identical to NumPy's.  The 5/3
 * lifting wraps on overflow, like NumPy's int64.
 *
 * Each component's samples sit in the Mallat layout of its output
 * plane: a level's LL in the top-left corner of that level's region,
 * HL to its right, LH below it, HH diagonally.  Inverting a level turns
 * its region into the next level's LL.
 */

/* GCC's -O2 cost model vectorises only loops that need no scalar
 * epilogue; the lifting and gather loops run over any row length.
 * Vector lanes do the same IEEE operations, so values do not change. */
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC optimize ("vect-cost-model=dynamic")
#endif

/* Fields of one row of the block table and of the level table. */
enum { B_INDEX, B_Y, B_X, B_HEIGHT, B_WIDTH, B_FIELDS };
enum { L_HEIGHT, L_WIDTH, L_FIELDS };

/* Lifting constants, in the order the inverse 9/7 applies them. */
enum { C_DELTA, C_GAMMA, C_BETA, C_ALPHA, C_KAPPA, C_INV_KAPPA };

static inline int64_t wrap_add(int64_t a, int64_t b)
{
    return (int64_t)((uint64_t)a + (uint64_t)b);
}

static inline int64_t wrap_sub(int64_t a, int64_t b)
{
    return (int64_t)((uint64_t)a - (uint64_t)b);
}

/* 5/3 even sample: low - floor((d[i-1] + d[i] + 2) / 4). */
static inline int64_t even53(int64_t low, int64_t left, int64_t right)
{
    return wrap_sub(low, wrap_add(wrap_add(left, right), 2) >> 2);
}

/* 5/3 odd sample: high + floor((s[i] + s[i+1]) / 2). */
static inline int64_t odd53(int64_t high, int64_t left, int64_t right)
{
    return wrap_add(high, wrap_add(left, right) >> 1);
}

/* quant.dequantise of one index: sign * ((|q| + 0.5) * delta), which is
 * 0 for q = 0.  np.abs wraps at INT64_MIN, whose magnitude then reads
 * as negative and is not reconstructed: -1 * 0.0. */
static inline double dequantise(int64_t q, double delta)
{
    if (q == INT64_MIN)
        return -0.0;
    int64_t negative = q >> 63;  /* branch-free |q| */
    double magnitude = (double)((q ^ negative) - negative);
    return (double)((q > 0) - (q < 0)) * ((magnitude + 0.5) * delta);
}

static inline int64_t clamp_index(int64_t i, int64_t count)
{
    return i < 0 ? 0 : (i >= count ? count - 1 : i);
}

/* Vertical 5/3 synthesis of rows [0, h) x [0, w) of `plane`, h > 1:
 * every column at once, one row at a time, from a packed copy. */
static void columns53(int64_t *plane, int64_t stride, int64_t h, int64_t w,
                      int64_t *restrict copy)
{
    int64_t ne = (h + 1) / 2, no = h - ne;
    const int64_t *high = copy + ne * w;
    for (int64_t r = 0; r < h; r++)
        memcpy(copy + r * w, plane + r * stride, w * sizeof *copy);
    for (int64_t i = 0; i < ne; i++) {
        const int64_t *low = copy + i * w;
        const int64_t *left = high + clamp_index(i - 1, no) * w;
        const int64_t *right = high + clamp_index(i, no) * w;
        int64_t *even = plane + 2 * i * stride;
        for (int64_t k = 0; k < w; k++)
            even[k] = even53(low[k], left[k], right[k]);
    }
    for (int64_t i = 0; i < no; i++) {
        const int64_t *d = high + i * w;
        const int64_t *left = plane + 2 * i * stride;
        const int64_t *right = plane + 2 * clamp_index(i + 1, ne) * stride;
        int64_t *odd = plane + (2 * i + 1) * stride;
        for (int64_t k = 0; k < w; k++)
            odd[k] = odd53(d[k], left[k], right[k]);
    }
}

/* Horizontal 5/3 synthesis of one row of w > 1 samples.  `line` holds
 * w + 4 samples: each band between two reflection slots. */
static void row53(int64_t *row, int64_t w, int64_t *line)
{
    int64_t ne = (w + 1) / 2, no = w - ne;
    int64_t *even = line + 1, *odd = line + ne + 3;
    memcpy(even, row, ne * sizeof *row);
    memcpy(odd, row + ne, no * sizeof *row);
    odd[-1] = odd[0];
    odd[no] = odd[no - 1];
    for (int64_t i = 0; i < ne; i++)
        even[i] = even53(even[i], odd[i - 1], odd[i]);
    even[ne] = even[ne - 1];
    for (int64_t i = 0; i < no; i++)
        odd[i] = odd53(odd[i], even[i], even[i + 1]);
    for (int64_t i = 0; i < no; i++) {
        row[2 * i] = even[i];
        row[2 * i + 1] = odd[i];
    }
    if (ne > no)
        row[w - 1] = even[ne - 1];
}

/* One vertical 9/7 lifting step over `count` rows of `w` samples:
 * b[i] = b[i] + c * (a[i + shift] + a[i + shift + 1]), each neighbour
 * reflected into the `source_count` rows of the other band. */
static void lift_rows(double *restrict target, int64_t count,
                      const double *restrict source, int64_t source_count,
                      int64_t w, int64_t shift, double c)
{
    for (int64_t i = 0; i < count; i++) {
        const double *left = source + clamp_index(i + shift, source_count) * w;
        const double *right =
            source + clamp_index(i + shift + 1, source_count) * w;
        double *b = target + i * w;
        for (int64_t k = 0; k < w; k++)
            b[k] = b[k] + c * (left[k] + right[k]);
    }
}

/* Vertical 9/7 synthesis, as columns53. */
static void columns97(double *plane, int64_t stride, int64_t h, int64_t w,
                      double *restrict copy, const double *k)
{
    int64_t ne = (h + 1) / 2, no = h - ne;
    double *even = copy, *odd = copy + ne * w;
    for (int64_t r = 0; r < h; r++) {
        const double *in = plane + r * stride;
        double *out = copy + r * w;
        double scale = r < ne ? k[C_KAPPA] : k[C_INV_KAPPA];
        for (int64_t c = 0; c < w; c++)
            out[c] = in[c] * scale;
    }
    lift_rows(even, ne, odd, no, w, -1, k[C_DELTA]);
    lift_rows(odd, no, even, ne, w, 0, k[C_GAMMA]);
    lift_rows(even, ne, odd, no, w, -1, k[C_BETA]);
    lift_rows(odd, no, even, ne, w, 0, k[C_ALPHA]);
    for (int64_t r = 0; r < h; r++)
        memcpy(plane + r * stride, (r & 1 ? odd : even) + r / 2 * w,
               w * sizeof *plane);
}

/* One horizontal 9/7 lifting step: b[i] = b[i] + c * (a[i + shift] +
 * a[i + shift + 1]) for i < count, over bands padded by reflection. */
static void lift_line(double *restrict b, int64_t count,
                      const double *restrict a, int64_t shift, double c)
{
    for (int64_t i = 0; i < count; i++)
        b[i] = b[i] + c * (a[i + shift] + a[i + shift + 1]);
}

/* Horizontal 9/7 synthesis of one row, as row53. */
static void row97(double *row, int64_t w, double *line, const double *k)
{
    int64_t ne = (w + 1) / 2, no = w - ne;
    double *even = line + 1, *odd = line + ne + 3;
    for (int64_t i = 0; i < ne; i++)
        even[i] = row[i] * k[C_KAPPA];
    for (int64_t i = 0; i < no; i++)
        odd[i] = row[ne + i] * k[C_INV_KAPPA];
    for (int step = 0; step < 4; step += 2) {
        odd[-1] = odd[0];
        odd[no] = odd[no - 1];
        lift_line(even, ne, odd, -1, k[C_DELTA + step]);
        even[ne] = even[ne - 1];
        lift_line(odd, no, even, 0, k[C_GAMMA + step]);
    }
    for (int64_t i = 0; i < no; i++) {
        row[2 * i] = even[i];
        row[2 * i + 1] = odd[i];
    }
    if (ne > no)
        row[w - 1] = even[ne - 1];
}

/* Columns per strip of the vertical pass: its packed copy is h rows of
 * at most STRIP samples, so the scratch stays small and cache-resident. */
#define STRIP 32

/* Inverse DWT of one level: rows [0, h) x [0, w) of `plane` (row
 * stride `stride`, int64 for 5/3, float64 when `lifting` is given),
 * the vertical pass before the horizontal one as in dwt._inverse_2d.
 * `scratch` holds max(h * STRIP, w + 4) samples. */
static void idwt_level(void *plane, int64_t stride, int64_t h, int64_t w,
                       void *scratch, const double *lifting)
{
    for (int64_t x = 0; h > 1 && x < w; x += STRIP) {
        int64_t strip = w - x < STRIP ? w - x : STRIP;
        if (lifting == NULL)
            columns53((int64_t *)plane + x, stride, h, strip, scratch);
        else
            columns97((double *)plane + x, stride, h, strip, scratch, lifting);
    }
    for (int64_t r = 0; w > 1 && r < h; r++) {
        if (lifting == NULL)
            row53((int64_t *)plane + r * stride, w, scratch);
        else
            row97((double *)plane + r * stride, w, scratch, lifting);
    }
}

/* Gather one block of `bh` rows of `bw` into a plane of row stride
 * `stride`, as int64 (5/3) or dequantised float64 (9/7). */
#define GATHER(source_type, target, convert)                              \
    do {                                                                  \
        const source_type *in = (const source_type *)flat + start;        \
        for (int64_t y = 0; y < bh; y++, in += bw)                        \
            for (int64_t x = 0; x < bw; x++)                              \
                target[origin + y * stride + x] = convert(in[x]);         \
    } while (0)
#define AS_INT(q) ((int64_t)(q))
#define AS_REAL(q) dequantise((q), delta)

static void gather_block(const void *flat, int flat_wide, int64_t start,
                         int64_t bh, int64_t bw, int64_t origin,
                         int64_t stride, const double *deltas, double delta,
                         int64_t *ints, double *reals)
{
    if (deltas == NULL && flat_wide)
        GATHER(int64_t, ints, AS_INT);
    else if (deltas == NULL)
        GATHER(int32_t, ints, AS_INT);
    else if (flat_wide)
        GATHER(int64_t, reals, AS_REAL);
    else
        GATHER(int32_t, reals, AS_REAL);
}

/*
 * Reconstruct the `components` planes of one tile, each `height` rows
 * of `width` samples, into `out` (int64 for 5/3, float64 for 9/7).
 *
 * `flat` holds the Tier-1 output (int32, or int64 when `flat_wide`),
 * `flat_length` samples; block j of component c starts at
 * ``offsets[c * blocks_per_component + j]``.  Row i of `blocks` puts
 * block B_INDEX = j of every component at (B_Y, B_X) of its plane,
 * B_HEIGHT rows of B_WIDTH; blocks not listed (resolutions beyond the
 * reconstructed one) are skipped.  When `deltas` is not NULL the tile
 * is 9/7 and row i's samples are dequantised with step ``deltas[i]``.
 * `levels` lists each inverse level's region (L_HEIGHT x L_WIDTH at the
 * plane's origin), coarsest first; `lifting` holds the signed 9/7
 * lifting constants (C_*).
 *
 * Returns 0, i + 1 when block row i fails the geometry backstop, -2
 * when a level overruns the plane (nothing is written in either case),
 * or -1 when scratch allocation fails.
 */
int64_t reconstruct_tile(int64_t components, int64_t height, int64_t width,
                         const void *flat, int64_t flat_wide,
                         int64_t flat_length, const int64_t *offsets,
                         int64_t blocks_per_component, const int64_t *blocks,
                         int64_t block_count, const int64_t *levels,
                         int64_t level_count, const double *deltas,
                         const double *lifting, void *out)
{
    int64_t plane_size = height * width;
    for (int64_t i = 0; i < block_count; i++) {
        const int64_t *row = blocks + i * B_FIELDS;
        if (row[B_INDEX] < 0 || row[B_INDEX] >= blocks_per_component
                || row[B_Y] < 0 || row[B_X] < 0 || row[B_HEIGHT] < 1
                || row[B_WIDTH] < 1 || row[B_HEIGHT] > height - row[B_Y]
                || row[B_WIDTH] > width - row[B_X])
            return i + 1;
        for (int64_t c = 0; c < components; c++) {
            int64_t start = offsets[c * blocks_per_component + row[B_INDEX]];
            if (start < 0
                    || start > flat_length - row[B_HEIGHT] * row[B_WIDTH])
                return i + 1;
        }
    }
    for (int64_t i = 0; i < level_count; i++) {
        const int64_t *row = levels + i * L_FIELDS;
        if (row[L_HEIGHT] < 1 || row[L_HEIGHT] > height || row[L_WIDTH] < 1
                || row[L_WIDTH] > width)
            return -2;
    }
    int64_t strip = height * STRIP;
    void *scratch = malloc((strip > width + 4 ? strip : width + 4) * 8);
    if (scratch == NULL)
        return -1;
    for (int64_t c = 0; c < components; c++) {
        int64_t *ints = (int64_t *)out + c * plane_size;
        double *reals = (double *)out + c * plane_size;
        for (int64_t i = 0; i < block_count; i++) {
            const int64_t *row = blocks + i * B_FIELDS;
            gather_block(flat, flat_wide != 0,
                         offsets[c * blocks_per_component + row[B_INDEX]],
                         row[B_HEIGHT], row[B_WIDTH],
                         row[B_Y] * width + row[B_X], width, deltas,
                         deltas != NULL ? deltas[i] : 0.0, ints, reals);
        }
        for (int64_t i = 0; i < level_count; i++) {
            const int64_t *row = levels + i * L_FIELDS;
            idwt_level(deltas != NULL ? (void *)reals : (void *)ints, width,
                       row[L_HEIGHT], row[L_WIDTH], scratch,
                       deltas != NULL ? lifting : NULL);
        }
    }
    free(scratch);
    return 0;
}
