// Wire format for net::Message — the byte contract of the TCP backend.
//
// A frame is a little-endian length prefix followed by a fixed header and
// the payload doubles:
//
//   offset  size  field
//   0       4     u32  frame length (bytes AFTER this field)
//   4       2     u16  magic 0xA517
//   6       1     u8   version (currently 1)
//   7       1     u8   flags: bit0 partial, bits1-3 MsgKind (kValue 0,
//                      kStop 1, kPing 2, kAck 3, kPingReq 4,
//                      kMembershipUpdate 5 — kStop keeps its original
//                      bit pattern 0x02, so pre-membership frames are
//                      byte-identical), bit4 complete (a partial-range
//                      frame that nonetheless finishes the sender's
//                      round — delta frames set it so gated modes keep
//                      their round accounting), bit5 codec (a codec
//                      subheader follows the fixed header and the
//                      payload is quantized integers, not raw doubles);
//                      bits 6-7 rejected
//   8       4     u32  sender rank
//   12      4     u32  block id
//   16      8     u64  tag (sender's per-block production counter)
//   24      8     u64  epoch (sender's round index)
//   32      4     u32  offset (coordinate offset within the block —
//                      partial-block frames for flexible communication)
//   36      4     u32  count (number of payload doubles)
//   40      8     f64  t_send (sender clock, diagnostic only: sender and
//                      receiver clocks are not comparable across hosts)
//   48      8     f64  injected_delay (chaos decorator; 0 otherwise)
//   56      8*count    payload doubles, little-endian IEEE-754
//
// When flag bit5 (codec) is set, a 20-byte codec subheader sits between
// the fixed header and the payload, and the payload is packed
// little-endian quantized integers instead of doubles:
//
//   56      1     u8   codec id (1 = scalar quantization)
//   57      1     u8   quant_bits (8 or 16)
//   58      2     u16  reserved (must be 0)
//   60      8     f64  quant_min
//   68      8     f64  quant_scale
//   76      count*quant_bits/8   packed LE unsigned ints; double i is
//                      quant_min + quant_scale * q[i] (codec.hpp dequant
//                      — the ONE arithmetic every decoder uses, so all
//                      backends deliver bit-identical values)
//
// All integers and doubles are little-endian regardless of host order.
// decode_frame is defensive: it never trusts the length field further
// than the declared maximum, rejects bad magic/version/kind and
// inconsistent lengths, bounds offset+count against the configured max
// block width (a frame whose range cannot fit any block dies at the
// wire, not at incorporate), and distinguishes "frame still incomplete"
// (kNeedMore) from "stream is garbage" (kBadFrame) so a reader thread can
// keep a reassembly buffer across short reads yet kill a corrupted
// connection immediately.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "asyncit/net/channel.hpp"
#include "asyncit/transport/transport.hpp"

namespace asyncit::transport {

inline constexpr std::uint16_t kWireMagic = 0xA517;
inline constexpr std::uint8_t kWireVersion = 1;
/// Header bytes AFTER the 4-byte length prefix.
inline constexpr std::size_t kWireHeaderBytes = 52;
/// Hard cap on payload doubles per frame (sanity bound for garbage
/// rejection; generously above any block the runtime partitions).
inline constexpr std::uint32_t kMaxPayloadDoubles = 1u << 22;
/// Codec subheader bytes (present when the codec flag bit is set).
inline constexpr std::size_t kCodecSubheaderBytes = 20;

/// Encoded size of a message carrying `count` payload doubles, including
/// the length prefix.
inline constexpr std::size_t frame_bytes(std::size_t count) {
  return 4 + kWireHeaderBytes + 8 * count;
}

/// Encoded size including the length prefix for a frame carrying `count`
/// components at `quant_bits` bits each (0 = raw doubles). This is THE
/// bytes-on-wire figure: the TCP backend produces exactly this many
/// bytes, and the simnet bandwidth model charges exactly this many.
inline constexpr std::size_t wire_frame_bytes(std::size_t count,
                                              unsigned quant_bits) {
  return quant_bits == 0
             ? frame_bytes(count)
             : 4 + kWireHeaderBytes + kCodecSubheaderBytes +
                   (count * quant_bits + 7) / 8;
}

/// Serializes `m` into `out` (cleared first; capacity is retained, so a
/// pooled buffer makes this allocation-free once warm). Always a raw
/// (non-codec) frame: net::Message carries decoded doubles only.
void encode_frame(const net::Message& m, std::vector<std::uint8_t>& out);

/// Sender-side fast path: encodes straight from the header and payload
/// span the peer passes to Endpoint::send — no net::Message is
/// materialized on the TX side at all. When header.quant_bits is 8 or 16
/// the frame is emitted with the codec subheader and each double is
/// re-quantized against header.quant_min/quant_scale (the peer has
/// already roundtripped the values, so requantization is exact and the
/// decoder reproduces the payload bit-identically).
void encode_frame(std::uint32_t src, const MessageHeader& header,
                  std::span<const double> value, double t_send,
                  std::vector<std::uint8_t>& out);

enum class DecodeStatus {
  kOk,        ///< one frame decoded; `consumed` bytes eaten
  kNeedMore,  ///< prefix of a valid frame; feed more bytes
  kBadFrame,  ///< stream corrupt (bad magic/version/length/kind/range)
};

/// Attempts to decode one frame from the front of `buf` into `out`. The
/// payload is written into `payload` (resized; capacity retained) and
/// out.value views it, so `payload` must outlive every use of `out`;
/// codec payloads are dequantized into doubles here, so consumers never
/// see packed ints. out.slab is left untouched. On kOk, `consumed` is set
/// to the number of bytes eaten; otherwise it is 0. `max_block_doubles`
/// bounds offset+count: a frame whose coordinate range exceeds the
/// widest block the receiver could ever incorporate is rejected at
/// decode time.
DecodeStatus decode_frame(std::span<const std::uint8_t> buf,
                          std::size_t& consumed, net::Message& out,
                          std::vector<double>& payload,
                          std::uint32_t max_block_doubles =
                              kMaxPayloadDoubles);

}  // namespace asyncit::transport
