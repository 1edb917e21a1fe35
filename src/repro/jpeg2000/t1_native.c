/*
 * Native EBCOT Tier-1 coder (ITU-T T.800, Annexes C and D), both ways.
 *
 * A direct port of the executable specification -- t1.py's
 * CodeBlockDecoder driving mq.py's MqDecoder, and CodeBlockEncoder
 * driving MqEncoder -- one implementation level down.  Same scan order,
 * same contexts, same pass truncation and pass-length marks, and the
 * same basic-operation count: +1 per MQ decision and +1 per
 * renormalisation shift, so the Fig. 1 / Table 1 cycle models read the
 * same numbers whichever kernel coded a block.
 *
 * Entry points: t1_decode_batch and t1_encode_batch.  The Python
 * wrapper (t1_native.py) validates every block's geometry before the
 * call; the checks here are a backstop that stops the batch instead of
 * touching memory.  Reads past a codeword's end yield 0xFF (spec C.2.2)
 * and never leave the codeword; writes never leave the block's slice of
 * the decoder's output or the encoder's caller-sized byte buffer.
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
