#include "asyncit/transport/wire.hpp"

#include <bit>
#include <cstring>

#include "asyncit/transport/codec.hpp"

namespace asyncit::transport {

namespace {

// Explicit little-endian byte (de)serialization: portable regardless of
// host order, and on LE hosts the compiler collapses each helper to a
// plain load/store.

void put_u16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
}

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i)
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i)
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void put_f64(std::vector<std::uint8_t>& out, double v) {
  put_u64(out, std::bit_cast<std::uint64_t>(v));
}

std::uint16_t get_u16(const std::uint8_t* p) {
  return static_cast<std::uint16_t>(p[0] | (std::uint16_t(p[1]) << 8));
}

std::uint32_t get_u32(const std::uint8_t* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= std::uint32_t(p[i]) << (8 * i);
  return v;
}

std::uint64_t get_u64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= std::uint64_t(p[i]) << (8 * i);
  return v;
}

double get_f64(const std::uint8_t* p) {
  return std::bit_cast<double>(get_u64(p));
}

// flags byte: bit0 = partial, bits 1-3 = MsgKind (kValue 0 .. 5; kStop=1
// lands on the old 0x02 "stop" bit, so version-1 frames are unchanged),
// bit4 = complete (partial range that finishes the sender's round),
// bit5 = codec (subheader + quantized payload follow).
constexpr std::uint8_t kFlagPartial = 0x01;
constexpr std::uint8_t kKindShift = 1;
constexpr std::uint8_t kKindMask = 0x07;
constexpr std::uint8_t kFlagComplete = 0x10;
constexpr std::uint8_t kFlagCodec = 0x20;
constexpr std::uint8_t kKnownFlags = kFlagPartial |
                                     (kKindMask << kKindShift) |
                                     kFlagComplete | kFlagCodec;

}  // namespace

namespace {

void encode_fields(std::uint32_t src, la::BlockId block, model::Step tag,
                   std::uint64_t round, std::uint32_t offset, bool partial,
                   bool complete, net::MsgKind kind, double t_send,
                   double injected_delay, std::uint8_t quant_bits,
                   double quant_min, double quant_scale,
                   std::span<const double> value,
                   std::vector<std::uint8_t>& out) {
  out.clear();
  const std::uint32_t count = static_cast<std::uint32_t>(value.size());
  const bool codec = quant_bits != 0;
  out.reserve(wire_frame_bytes(count, quant_bits));
  const std::uint64_t body =
      codec ? kWireHeaderBytes + kCodecSubheaderBytes +
                  codec::quant_payload_bytes(count, quant_bits)
            : kWireHeaderBytes + 8ull * count;
  put_u32(out, static_cast<std::uint32_t>(body));
  put_u16(out, kWireMagic);
  out.push_back(kWireVersion);
  std::uint8_t flags = 0;
  if (partial) flags |= kFlagPartial;
  flags |= static_cast<std::uint8_t>(
      (static_cast<std::uint8_t>(kind) & kKindMask) << kKindShift);
  if (complete) flags |= kFlagComplete;
  if (codec) flags |= kFlagCodec;
  out.push_back(flags);
  put_u32(out, src);
  put_u32(out, block);
  put_u64(out, tag);
  put_u64(out, round);
  put_u32(out, offset);
  put_u32(out, count);
  put_f64(out, t_send);
  put_f64(out, injected_delay);
  if (!codec) {
    for (const double v : value) put_f64(out, v);
    return;
  }
  out.push_back(codec::kCodecScalarQuant);
  out.push_back(quant_bits);
  put_u16(out, 0);  // reserved
  put_f64(out, quant_min);
  put_f64(out, quant_scale);
  // The payload is already on lattice points (the sender roundtripped it
  // through the codec before send), so requantizing here is exact — the
  // decoder's dequant reproduces the input doubles bit for bit.
  const codec::QuantParams p{quant_min, quant_scale};
  if (quant_bits == 8) {
    for (const double v : value)
      out.push_back(static_cast<std::uint8_t>(codec::quantize(p, 8, v)));
  } else {
    for (const double v : value)
      put_u16(out, static_cast<std::uint16_t>(codec::quantize(p, 16, v)));
  }
}

}  // namespace

void encode_frame(const net::Message& m, std::vector<std::uint8_t>& out) {
  encode_fields(m.src, m.block, m.tag, m.round, m.offset, m.partial,
                m.complete, m.kind, m.t_send, m.injected_delay, 0, 0.0, 0.0,
                m.value, out);
}

void encode_frame(std::uint32_t src, const MessageHeader& header,
                  std::span<const double> value, double t_send,
                  std::vector<std::uint8_t>& out) {
  encode_fields(src, header.block, header.tag, header.round, header.offset,
                header.partial, header.complete, header.kind, t_send,
                header.injected_delay, header.quant_bits, header.quant_min,
                header.quant_scale, value, out);
}

DecodeStatus decode_frame(std::span<const std::uint8_t> buf,
                          std::size_t& consumed, net::Message& out,
                          std::vector<double>& payload,
                          std::uint32_t max_block_doubles) {
  consumed = 0;
  if (buf.size() < 4) return DecodeStatus::kNeedMore;
  const std::uint8_t* p = buf.data();
  const std::uint32_t length = get_u32(p);
  // Reject an insane length BEFORE waiting for it to "complete": a
  // corrupted prefix must not make the reader buffer gigabytes. The
  // exact length/count consistency (raw vs codec layout) is checked once
  // the flags byte is in hand.
  if (length < kWireHeaderBytes ||
      length > kWireHeaderBytes + kCodecSubheaderBytes +
                   8ull * kMaxPayloadDoubles)
    return DecodeStatus::kBadFrame;
  // A length below the smallest codec layout can only be a raw frame,
  // and a raw frame is header + whole doubles — a ragged length is
  // structurally broken and rejectable from the prefix alone.
  if (length < kWireHeaderBytes + kCodecSubheaderBytes &&
      (length - kWireHeaderBytes) % 8 != 0)
    return DecodeStatus::kBadFrame;
  // Magic/version/flags are validated as soon as they are present, again
  // so a garbage stream fails fast instead of stalling in kNeedMore.
  if (buf.size() >= 6 && get_u16(p + 4) != kWireMagic)
    return DecodeStatus::kBadFrame;
  if (buf.size() >= 7 && p[6] != kWireVersion) return DecodeStatus::kBadFrame;
  if (buf.size() >= 8 && (p[7] & ~kKnownFlags)) return DecodeStatus::kBadFrame;
  if (buf.size() < 4 + std::size_t(length)) return DecodeStatus::kNeedMore;

  const std::uint8_t flags = p[7];
  if (flags & ~kKnownFlags) return DecodeStatus::kBadFrame;
  const std::uint8_t kind = (flags >> kKindShift) & kKindMask;
  if (kind >= net::kNumMsgKinds) return DecodeStatus::kBadFrame;
  const bool codec = (flags & kFlagCodec) != 0;
  const std::uint32_t count = get_u32(p + 36);
  const std::uint32_t offset = get_u32(p + 32);
  // Range bound (u64 arithmetic — offset + count must not be allowed to
  // wrap): a frame whose coordinate range exceeds the widest block the
  // receiver could incorporate is stream garbage, not a peer decision.
  if (std::uint64_t(offset) + count > max_block_doubles)
    return DecodeStatus::kBadFrame;
  std::uint8_t quant_bits = 0;
  double quant_min = 0.0, quant_scale = 0.0;
  if (codec) {
    if (length < kWireHeaderBytes + kCodecSubheaderBytes)
      return DecodeStatus::kBadFrame;
    const std::uint8_t* sub = p + 4 + kWireHeaderBytes;
    quant_bits = sub[1];
    if (sub[0] != codec::kCodecScalarQuant ||
        (quant_bits != 8 && quant_bits != 16) || get_u16(sub + 2) != 0)
      return DecodeStatus::kBadFrame;
    if (kWireHeaderBytes + kCodecSubheaderBytes +
            codec::quant_payload_bytes(count, quant_bits) !=
        length)
      return DecodeStatus::kBadFrame;
    quant_min = get_f64(sub + 4);
    quant_scale = get_f64(sub + 12);
  } else {
    if (kWireHeaderBytes + 8ull * count != length)
      return DecodeStatus::kBadFrame;
  }

  out.src = get_u32(p + 8);
  out.block = get_u32(p + 12);
  out.tag = get_u64(p + 16);
  out.round = get_u64(p + 24);
  out.offset = offset;
  out.partial = (flags & kFlagPartial) != 0;
  out.complete = (flags & kFlagComplete) != 0;
  out.kind = static_cast<net::MsgKind>(kind);
  out.t_send = get_f64(p + 40);
  out.injected_delay = get_f64(p + 48);
  out.deliver_at = 0.0;
  payload.resize(count);
  if (codec) {
    const std::uint8_t* q = p + 4 + kWireHeaderBytes + kCodecSubheaderBytes;
    if (quant_bits == 8) {
      for (std::uint32_t i = 0; i < count; ++i)
        payload[i] = codec::dequant(quant_min, quant_scale, q[i]);
    } else {
      for (std::uint32_t i = 0; i < count; ++i)
        payload[i] =
            codec::dequant(quant_min, quant_scale, get_u16(q + 2ull * i));
    }
  } else {
    const std::uint8_t* raw = p + 4 + kWireHeaderBytes;
    if constexpr (std::endian::native == std::endian::little) {
      if (count > 0) std::memcpy(payload.data(), raw, 8ull * count);
    } else {
      for (std::uint32_t i = 0; i < count; ++i)
        payload[i] = get_f64(raw + 8ull * i);
    }
  }
  out.value = payload;
  consumed = 4 + std::size_t(length);
  return DecodeStatus::kOk;
}

}  // namespace asyncit::transport
