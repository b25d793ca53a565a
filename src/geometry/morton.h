#ifndef NWC_GEOMETRY_MORTON_H_
#define NWC_GEOMETRY_MORTON_H_

#include <cstdint>

namespace nwc {

/// Spreads the low 16 bits of `v` into the even bit positions (bit i moves
/// to bit 2i); higher input bits are ignored.
constexpr uint32_t SpreadBits16(uint32_t v) {
  v &= 0xFFFFu;
  v = (v | (v << 8)) & 0x00FF00FFu;
  v = (v | (v << 4)) & 0x0F0F0F0Fu;
  v = (v | (v << 2)) & 0x33333333u;
  v = (v | (v << 1)) & 0x55555555u;
  return v;
}

/// Inverse of SpreadBits16: gathers the even bits of `v` into the low 16
/// bits; odd input bits are ignored.
constexpr uint32_t CompactBits16(uint32_t v) {
  v &= 0x55555555u;
  v = (v | (v >> 1)) & 0x33333333u;
  v = (v | (v >> 2)) & 0x0F0F0F0Fu;
  v = (v | (v >> 4)) & 0x00FF00FFu;
  v = (v | (v >> 8)) & 0x0000FFFFu;
  return v;
}

/// Morton (Z-order) key of 16-bit grid coordinates: x in the even bits, y
/// in the odd bits.
constexpr uint32_t MortonKey16(uint32_t gx, uint32_t gy) {
  return SpreadBits16(gx) | (SpreadBits16(gy) << 1);
}

}  // namespace nwc

#endif  // NWC_GEOMETRY_MORTON_H_
