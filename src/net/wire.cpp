#include "net/wire.h"

#include <cstring>

namespace upa::net {
namespace {

/// Highest valid StatusCode value on the wire (codes are appended to the
/// enum, so this is the trailing member).
constexpr uint8_t kMaxStatusCode =
    static_cast<uint8_t>(StatusCode::kUnavailable);

Status DecodeStatusCode(uint8_t raw, StatusCode* out) {
  if (raw > kMaxStatusCode) {
    return Status::InvalidArgument("unknown status code on wire: " +
                                   std::to_string(raw));
  }
  *out = static_cast<StatusCode>(raw);
  return Status::Ok();
}

bool KnownFrameType(uint8_t raw) {
  return raw >= static_cast<uint8_t>(FrameType::kQueryRequest) &&
         raw <= static_cast<uint8_t>(FrameType::kError);
}

uint32_t LoadU32(const char* p) {
  const auto* b = reinterpret_cast<const unsigned char*>(p);
  return static_cast<uint32_t>(b[0]) | (static_cast<uint32_t>(b[1]) << 8) |
         (static_cast<uint32_t>(b[2]) << 16) |
         (static_cast<uint32_t>(b[3]) << 24);
}

uint64_t LoadU64(const char* p) {
  uint64_t v = 0;
  const auto* b = reinterpret_cast<const unsigned char*>(p);
  for (int i = 7; i >= 0; --i) v = (v << 8) | b[i];
  return v;
}

void StoreU32(char* p, uint32_t v) {
  for (int i = 0; i < 4; ++i) p[i] = static_cast<char>((v >> (8 * i)) & 0xff);
}

void StoreU64(char* p, uint64_t v) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<char>((v >> (8 * i)) & 0xff);
}

}  // namespace

uint64_t WireChecksum(std::string_view bytes, uint64_t seed) {
  uint64_t h = seed;
  for (char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

Status PayloadReader::GetU8(uint8_t* out) {
  if (remaining() < 1) {
    return Status::InvalidArgument("payload truncated reading u8");
  }
  *out = static_cast<unsigned char>(bytes_[pos_++]);
  return Status::Ok();
}

Status PayloadReader::GetU32(uint32_t* out) {
  if (remaining() < 4) {
    return Status::InvalidArgument("payload truncated reading u32");
  }
  *out = LoadU32(bytes_.data() + pos_);
  pos_ += 4;
  return Status::Ok();
}

Status PayloadReader::GetU64(uint64_t* out) {
  if (remaining() < 8) {
    return Status::InvalidArgument("payload truncated reading u64");
  }
  *out = LoadU64(bytes_.data() + pos_);
  pos_ += 8;
  return Status::Ok();
}

Status PayloadReader::GetI64(int64_t* out) {
  uint64_t bits = 0;
  UPA_RETURN_IF_ERROR(GetU64(&bits));
  std::memcpy(out, &bits, sizeof(*out));
  return Status::Ok();
}

Status PayloadReader::GetDouble(double* out) {
  uint64_t bits = 0;
  UPA_RETURN_IF_ERROR(GetU64(&bits));
  std::memcpy(out, &bits, sizeof(*out));
  return Status::Ok();
}

Status PayloadReader::GetString(std::string* out) {
  uint32_t len = 0;
  UPA_RETURN_IF_ERROR(GetU32(&len));
  // The length came off the wire; it must fit in what is actually here.
  if (remaining() < len) {
    return Status::InvalidArgument(
        "payload truncated reading string of claimed length " +
        std::to_string(len));
  }
  out->assign(bytes_.data() + pos_, len);
  pos_ += len;
  return Status::Ok();
}

Status PayloadReader::ExpectEnd() const {
  if (remaining() != 0) {
    return Status::InvalidArgument(std::to_string(remaining()) +
                                   " trailing bytes after payload");
  }
  return Status::Ok();
}

void PayloadWriter::PutU8(uint8_t v) { out_.push_back(static_cast<char>(v)); }

void PayloadWriter::PutU32(uint32_t v) {
  char buf[4];
  StoreU32(buf, v);
  out_.append(buf, sizeof(buf));
}

void PayloadWriter::PutU64(uint64_t v) {
  char buf[8];
  StoreU64(buf, v);
  out_.append(buf, sizeof(buf));
}

void PayloadWriter::PutI64(int64_t v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  PutU64(bits);
}

void PayloadWriter::PutDouble(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  PutU64(bits);
}

void PayloadWriter::PutString(std::string_view s) {
  PutU32(static_cast<uint32_t>(s.size()));
  out_.append(s.data(), s.size());
}

std::string EncodeFrame(FrameType type, std::string_view payload) {
  std::string frame(kFrameHeaderBytes, '\0');
  StoreU32(frame.data(), kWireMagic);
  frame[4] = static_cast<char>(kWireVersion);
  frame[5] = static_cast<char>(type);
  frame[6] = 0;
  frame[7] = 0;
  StoreU32(frame.data() + 8, static_cast<uint32_t>(payload.size()));
  // Checksum the header prefix first, then the payload, so corruption of
  // ANY frame byte (checksum field aside, which then mismatches) trips it.
  uint64_t sum = WireChecksum(std::string_view(frame.data(), 12));
  sum = WireChecksum(payload, sum);
  StoreU64(frame.data() + 12, sum);
  frame.append(payload.data(), payload.size());
  return frame;
}

std::string EncodeQueryFrame(const WireQuery& query) {
  PayloadWriter w;
  w.PutU64(query.client_tag);
  w.PutString(query.tenant);
  w.PutString(query.dataset_id);
  w.PutDouble(query.epsilon);
  w.PutU64(query.seed);
  w.PutI64(query.deadline_ms);
  w.PutString(query.sql);
  w.PutU64(query.client_nonce);
  w.PutU64(query.client_seq);
  return EncodeFrame(FrameType::kQueryRequest, w.bytes());
}

std::string EncodeResultFrame(const WireResult& result) {
  PayloadWriter w;
  w.PutU64(result.client_tag);
  w.PutU8(static_cast<uint8_t>(result.code));
  w.PutString(result.message);
  const service::QueryResponse& r = result.response;
  w.PutDouble(r.released);
  w.PutDouble(r.epsilon);
  w.PutDouble(r.local_sensitivity);
  w.PutDouble(r.out_range.lo);
  w.PutDouble(r.out_range.hi);
  w.PutU8(r.attack_suspected ? 1 : 0);
  w.PutU64(static_cast<uint64_t>(r.records_removed));
  w.PutU8(r.degenerate_sensitivity ? 1 : 0);
  w.PutU8(r.sensitivity_cache_hit ? 1 : 0);
  w.PutU64(r.dataset_epoch);
  w.PutDouble(r.queue_seconds);
  w.PutDouble(r.seconds.sample);
  w.PutDouble(r.seconds.map);
  w.PutDouble(r.seconds.reduce);
  w.PutDouble(r.seconds.enforce);
  w.PutDouble(r.seconds.total);
  w.PutI64(result.retry_after_ms);
  return EncodeFrame(FrameType::kQueryResponse, w.bytes());
}

std::string EncodeStatsRequestFrame() {
  return EncodeFrame(FrameType::kStatsRequest, {});
}

std::string EncodeStatsResponseFrame(std::string_view text) {
  PayloadWriter w;
  w.PutString(text);
  return EncodeFrame(FrameType::kStatsResponse, w.bytes());
}

std::string EncodeErrorFrame(const Status& status) {
  PayloadWriter w;
  w.PutU8(static_cast<uint8_t>(status.code()));
  w.PutString(status.message());
  w.PutI64(status.retry_after_ms());
  return EncodeFrame(FrameType::kError, w.bytes());
}

Status DecodeQueryPayload(std::string_view payload, WireQuery* out) {
  PayloadReader r(payload);
  UPA_RETURN_IF_ERROR(r.GetU64(&out->client_tag));
  UPA_RETURN_IF_ERROR(r.GetString(&out->tenant));
  UPA_RETURN_IF_ERROR(r.GetString(&out->dataset_id));
  UPA_RETURN_IF_ERROR(r.GetDouble(&out->epsilon));
  UPA_RETURN_IF_ERROR(r.GetU64(&out->seed));
  UPA_RETURN_IF_ERROR(r.GetI64(&out->deadline_ms));
  UPA_RETURN_IF_ERROR(r.GetString(&out->sql));
  UPA_RETURN_IF_ERROR(r.GetU64(&out->client_nonce));
  UPA_RETURN_IF_ERROR(r.GetU64(&out->client_seq));
  return r.ExpectEnd();
}

Status DecodeResultPayload(std::string_view payload, WireResult* out) {
  PayloadReader r(payload);
  UPA_RETURN_IF_ERROR(r.GetU64(&out->client_tag));
  uint8_t code = 0;
  UPA_RETURN_IF_ERROR(r.GetU8(&code));
  UPA_RETURN_IF_ERROR(DecodeStatusCode(code, &out->code));
  UPA_RETURN_IF_ERROR(r.GetString(&out->message));
  service::QueryResponse& resp = out->response;
  UPA_RETURN_IF_ERROR(r.GetDouble(&resp.released));
  UPA_RETURN_IF_ERROR(r.GetDouble(&resp.epsilon));
  UPA_RETURN_IF_ERROR(r.GetDouble(&resp.local_sensitivity));
  UPA_RETURN_IF_ERROR(r.GetDouble(&resp.out_range.lo));
  UPA_RETURN_IF_ERROR(r.GetDouble(&resp.out_range.hi));
  uint8_t flag = 0;
  UPA_RETURN_IF_ERROR(r.GetU8(&flag));
  resp.attack_suspected = flag != 0;
  uint64_t removed = 0;
  UPA_RETURN_IF_ERROR(r.GetU64(&removed));
  resp.records_removed = static_cast<size_t>(removed);
  UPA_RETURN_IF_ERROR(r.GetU8(&flag));
  resp.degenerate_sensitivity = flag != 0;
  UPA_RETURN_IF_ERROR(r.GetU8(&flag));
  resp.sensitivity_cache_hit = flag != 0;
  UPA_RETURN_IF_ERROR(r.GetU64(&resp.dataset_epoch));
  UPA_RETURN_IF_ERROR(r.GetDouble(&resp.queue_seconds));
  UPA_RETURN_IF_ERROR(r.GetDouble(&resp.seconds.sample));
  UPA_RETURN_IF_ERROR(r.GetDouble(&resp.seconds.map));
  UPA_RETURN_IF_ERROR(r.GetDouble(&resp.seconds.reduce));
  UPA_RETURN_IF_ERROR(r.GetDouble(&resp.seconds.enforce));
  UPA_RETURN_IF_ERROR(r.GetDouble(&resp.seconds.total));
  UPA_RETURN_IF_ERROR(r.GetI64(&out->retry_after_ms));
  return r.ExpectEnd();
}

Status DecodeStatsResponsePayload(std::string_view payload, std::string* out) {
  PayloadReader r(payload);
  UPA_RETURN_IF_ERROR(r.GetString(out));
  return r.ExpectEnd();
}

Status DecodeErrorPayload(std::string_view payload, Status* out) {
  PayloadReader r(payload);
  uint8_t code = 0;
  UPA_RETURN_IF_ERROR(r.GetU8(&code));
  StatusCode parsed = StatusCode::kInternal;
  UPA_RETURN_IF_ERROR(DecodeStatusCode(code, &parsed));
  std::string message;
  UPA_RETURN_IF_ERROR(r.GetString(&message));
  int64_t retry_after_ms = 0;
  UPA_RETURN_IF_ERROR(r.GetI64(&retry_after_ms));
  UPA_RETURN_IF_ERROR(r.ExpectEnd());
  *out = Status(parsed, std::move(message));
  out->set_retry_after_ms(retry_after_ms);
  return Status::Ok();
}

void FrameAssembler::Feed(std::string_view bytes) {
  if (poisoned_) return;  // stream already condemned; drop everything
  // Compact consumed prefix before growing (keeps the buffer bounded by
  // one partial frame plus whatever a single Feed delivered).
  if (consumed_ > 0) {
    buffer_.erase(0, consumed_);
    consumed_ = 0;
  }
  buffer_.append(bytes.data(), bytes.size());
}

FrameAssembler::Outcome FrameAssembler::Next(Frame* frame, Status* error) {
  if (poisoned_) {
    *error = latched_error_;
    return Outcome::kError;
  }
  std::string_view view(buffer_.data() + consumed_,
                        buffer_.size() - consumed_);
  if (view.size() < kFrameHeaderBytes) return Outcome::kNeedMore;

  auto poison = [&](Status status) {
    poisoned_ = true;
    latched_error_ = std::move(status);
    *error = latched_error_;
    return Outcome::kError;
  };

  uint32_t magic = LoadU32(view.data());
  if (magic != kWireMagic) {
    return poison(Status::InvalidArgument("bad frame magic"));
  }
  uint8_t version = static_cast<unsigned char>(view[4]);
  if (version != kWireVersion) {
    return poison(Status::InvalidArgument("unsupported wire version " +
                                          std::to_string(version)));
  }
  uint8_t raw_type = static_cast<unsigned char>(view[5]);
  if (!KnownFrameType(raw_type)) {
    return poison(Status::InvalidArgument("unknown frame type " +
                                          std::to_string(raw_type)));
  }
  if (view[6] != 0 || view[7] != 0) {
    return poison(Status::InvalidArgument("nonzero reserved frame bytes"));
  }
  uint32_t payload_len = LoadU32(view.data() + 8);
  if (payload_len > max_frame_bytes_) {
    return poison(Status::ResourceExhausted(
        "frame payload of " + std::to_string(payload_len) +
        " bytes exceeds the " + std::to_string(max_frame_bytes_) +
        "-byte limit"));
  }
  if (view.size() < kFrameHeaderBytes + payload_len) return Outcome::kNeedMore;

  uint64_t expected = LoadU64(view.data() + 12);
  uint64_t sum = WireChecksum(view.substr(0, 12));
  sum = WireChecksum(view.substr(kFrameHeaderBytes, payload_len), sum);
  if (sum != expected) {
    return poison(Status::InvalidArgument("frame checksum mismatch"));
  }

  frame->type = static_cast<FrameType>(raw_type);
  frame->payload.assign(view.data() + kFrameHeaderBytes, payload_len);
  consumed_ += kFrameHeaderBytes + payload_len;
  return Outcome::kFrame;
}

}  // namespace upa::net
