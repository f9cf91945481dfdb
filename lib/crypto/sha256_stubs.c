/* SHA-256 block compression with the x86 SHA extensions, and the CPUID
   probe that says whether this CPU has them (see sha256.mli).

   [oasis_sha256_compress] compresses one 64-byte block into the eight
   chaining words, which live in an OCaml int array as immediate ints. The
   caller has bounds-checked the block and the array; the stub reads the 64
   bytes at [off] and writes back eight immediates, so it allocates nothing
   and needs no write barrier. On a build for another architecture the
   probe answers false and the compression stub is never called. */

#include <stdint.h>
#include <stdlib.h>
#include <caml/mlvalues.h>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define OASIS_SHA_NI 1
#include <cpuid.h>
#include <immintrin.h>
#endif

#ifdef OASIS_SHA_NI

static const uint32_t k[64] __attribute__((aligned(16))) = {
  0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
  0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
  0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
  0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
  0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
  0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
  0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
  0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
  0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
  0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
  0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2
};

/* Four rounds on schedule words [w] (rounds 4i to 4i+3): [sha256rnds2]
   runs two rounds on the low two words of its message operand, so the
   second call takes the upper two. */
#define ROUNDS4(i, w)                                                     \
  do {                                                                    \
    msg = _mm_add_epi32((w), _mm_load_si128((const __m128i *)(k + 4 * (i)))); \
    cdgh = _mm_sha256rnds2_epu32(cdgh, abef, msg);                        \
    abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(msg, 0x0E)); \
  } while (0)

/* The schedule as a ring of four vectors: after the four rounds on [w],
   [next] (holding sigma0-partial words from [sha256msg1]) becomes the
   words four positions on, and [prev] starts its own sigma0 step. */
#define NEXT(next, w, prev) \
  next = _mm_sha256msg2_epu32(_mm_add_epi32((next), _mm_alignr_epi8((w), (prev), 4)), (w))
#define PARTIAL(prev, w) prev = _mm_sha256msg1_epu32((prev), (w))

__attribute__((target("sha,sse4.1,ssse3")))
static void compress_block(uint32_t s[8], const uint8_t *p)
{
  /* Byte-swaps each 32-bit lane: the message words are big-endian. */
  const __m128i bswap = _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);
  __m128i abef, cdgh, msg, tmp, m0, m1, m2, m3, abef_in, cdgh_in;

  /* [sha256rnds2] keeps the state as (a, b, e, f) and (c, d, g, h). */
  tmp = _mm_shuffle_epi32(_mm_loadu_si128((const __m128i *)s), 0xB1);
  cdgh = _mm_shuffle_epi32(_mm_loadu_si128((const __m128i *)(s + 4)), 0x1B);
  abef = _mm_alignr_epi8(tmp, cdgh, 8);
  cdgh = _mm_blend_epi16(cdgh, tmp, 0xF0);
  abef_in = abef;
  cdgh_in = cdgh;

  m0 = _mm_shuffle_epi8(_mm_loadu_si128((const __m128i *)p), bswap);
  ROUNDS4(0, m0);
  m1 = _mm_shuffle_epi8(_mm_loadu_si128((const __m128i *)(p + 16)), bswap);
  ROUNDS4(1, m1);
  PARTIAL(m0, m1);
  m2 = _mm_shuffle_epi8(_mm_loadu_si128((const __m128i *)(p + 32)), bswap);
  ROUNDS4(2, m2);
  PARTIAL(m1, m2);
  m3 = _mm_shuffle_epi8(_mm_loadu_si128((const __m128i *)(p + 48)), bswap);
  ROUNDS4(3, m3);
  NEXT(m0, m3, m2);
  PARTIAL(m2, m3);
  ROUNDS4(4, m0);  NEXT(m1, m0, m3); PARTIAL(m3, m0);
  ROUNDS4(5, m1);  NEXT(m2, m1, m0); PARTIAL(m0, m1);
  ROUNDS4(6, m2);  NEXT(m3, m2, m1); PARTIAL(m1, m2);
  ROUNDS4(7, m3);  NEXT(m0, m3, m2); PARTIAL(m2, m3);
  ROUNDS4(8, m0);  NEXT(m1, m0, m3); PARTIAL(m3, m0);
  ROUNDS4(9, m1);  NEXT(m2, m1, m0); PARTIAL(m0, m1);
  ROUNDS4(10, m2); NEXT(m3, m2, m1); PARTIAL(m1, m2);
  ROUNDS4(11, m3); NEXT(m0, m3, m2); PARTIAL(m2, m3);
  ROUNDS4(12, m0); NEXT(m1, m0, m3); PARTIAL(m3, m0);
  ROUNDS4(13, m1); NEXT(m2, m1, m0);
  ROUNDS4(14, m2); NEXT(m3, m2, m1);
  ROUNDS4(15, m3);

  abef = _mm_add_epi32(abef, abef_in);
  cdgh = _mm_add_epi32(cdgh, cdgh_in);
  tmp = _mm_shuffle_epi32(abef, 0x1B);
  cdgh = _mm_shuffle_epi32(cdgh, 0xB1);
  _mm_storeu_si128((__m128i *)s, _mm_blend_epi16(tmp, cdgh, 0xF0));
  _mm_storeu_si128((__m128i *)(s + 4), _mm_alignr_epi8(cdgh, tmp, 8));
}

value oasis_sha256_compress(value h, value buf, intnat off)
{
  uint32_t s[8];
  int i;
  for (i = 0; i < 8; i++) s[i] = (uint32_t)Long_val(Field(h, i));
  compress_block(s, (const uint8_t *)Bytes_val(buf) + off);
  for (i = 0; i < 8; i++) Field(h, i) = Val_long(s[i]);
  return Val_unit;
}

/* CPUID leaf 7 EBX bit 29 (SHA), leaf 1 ECX bits 9 (SSSE3) and 19
   (SSE4.1). */
value oasis_sha256_hw_available(value unit)
{
  unsigned int a, b, c, d;
  (void)unit;
  if (__get_cpuid_max(0, NULL) < 7) return Val_false;
  __cpuid(1, a, b, c, d);
  if (!(c & (1u << 9)) || !(c & (1u << 19))) return Val_false;
  __cpuid_count(7, 0, a, b, c, d);
  return Val_bool((b & (1u << 29)) != 0);
}

#else

value oasis_sha256_compress(value h, value buf, intnat off)
{
  (void)h; (void)buf; (void)off;
  abort(); /* unreachable: the probe below answers false */
}

value oasis_sha256_hw_available(value unit)
{
  (void)unit;
  return Val_false;
}

#endif

value oasis_sha256_compress_byte(value h, value buf, value off)
{
  return oasis_sha256_compress(h, buf, Long_val(off));
}
