#include "net/frame_codec.h"

#include <bit>
#include <cstring>

#include "crypto/sha256.h"

namespace rcloak::net {

namespace {

void AppendFrameHeader(Bytes& out, FrameType type, std::size_t payload_len) {
  PutU32le(out, static_cast<std::uint32_t>(payload_len));
  out.push_back(static_cast<std::uint8_t>(type));
}

// Status-with-message tail shared by the error shapes of several frames.
void AppendStatusTail(Bytes& out, const Status& status) {
  out.push_back(static_cast<std::uint8_t>(status.code()));
  PutVarint(out, status.message().size());
  out.insert(out.end(), status.message().begin(), status.message().end());
}

// False when the payload truncates inside the status; *decoded holds the
// embedded status otherwise.
bool DecodeStatusTail(const Bytes& payload, std::size_t* offset,
                      Status* decoded) {
  if (*offset >= payload.size()) return false;
  const auto code = static_cast<ErrorCode>(payload[*offset]);
  ++*offset;
  if (code == ErrorCode::kOk) {
    *decoded = Status::Ok();
    return true;
  }
  const auto msg_len = GetVarint(payload, offset);
  if (!msg_len || *msg_len > payload.size() - *offset) return false;
  std::string message(reinterpret_cast<const char*>(payload.data() + *offset),
                      *msg_len);
  *offset += *msg_len;
  *decoded = Status(code, std::move(message));
  return true;
}

}  // namespace

std::string_view FrameTypeName(FrameType type) noexcept {
  switch (type) {
    case FrameType::kHello:
      return "HELLO";
    case FrameType::kPositionUpdate:
      return "POSITION_UPDATE";
    case FrameType::kArtifactReply:
      return "ARTIFACT_REPLY";
    case FrameType::kReduceRequest:
      return "REDUCE_REQUEST";
    case FrameType::kReduceReply:
      return "REDUCE_REPLY";
    case FrameType::kError:
      return "ERROR";
    case FrameType::kAuth:
      return "AUTH";
    case FrameType::kAuthOk:
      return "AUTH_OK";
  }
  return "UNKNOWN";
}

bool IsKnownFrameType(std::uint8_t type) noexcept {
  return type >= static_cast<std::uint8_t>(FrameType::kHello) &&
         type <= static_cast<std::uint8_t>(FrameType::kAuthOk);
}

// ------------------------------------------------------------ auth helpers

Bytes AuthTag(const Bytes& secret, const Bytes& nonce,
              std::string_view principal) {
  Bytes message;
  message.reserve(nonce.size() + principal.size());
  message.insert(message.end(), nonce.begin(), nonce.end());
  message.insert(message.end(), principal.begin(), principal.end());
  const crypto::Sha256::Digest digest = crypto::HmacSha256(secret, message);
  return Bytes(digest.begin(), digest.end());
}

std::uint64_t PrincipalToken(std::string_view principal) {
  if (principal.empty()) return 0;
  const crypto::Sha256::Digest digest = crypto::Sha256::Hash(principal);
  std::uint64_t token = 0;
  for (int i = 7; i >= 0; --i) token = (token << 8) | digest[i];
  // 0 is reserved for "unowned"; remap the (2^-64) collision.
  return token != 0 ? token : 1;
}

// ---------------------------------------------------------------- encoders

void AppendHello(Bytes& out, const HelloFrame& hello) {
  Bytes payload;
  payload.reserve(4 + 8 + 1 + hello.nonce.size());
  PutU32le(payload, hello.version);
  PutU64le(payload, hello.map_fingerprint);
  PutVarint(payload, hello.nonce.size());
  payload.insert(payload.end(), hello.nonce.begin(), hello.nonce.end());
  AppendFrameHeader(out, FrameType::kHello, payload.size());
  out.insert(out.end(), payload.begin(), payload.end());
}

void AppendAuth(Bytes& out, const AuthFrame& auth) {
  Bytes payload;
  payload.reserve(1 + auth.principal.size() + auth.tag.size());
  PutVarint(payload, auth.principal.size());
  payload.insert(payload.end(), auth.principal.begin(), auth.principal.end());
  payload.insert(payload.end(), auth.tag.begin(), auth.tag.end());
  AppendFrameHeader(out, FrameType::kAuth, payload.size());
  out.insert(out.end(), payload.begin(), payload.end());
}

void AppendAuthOk(Bytes& out, const AuthOkFrame& ok) {
  Bytes payload;
  payload.reserve(1 + ok.principal.size());
  PutVarint(payload, ok.principal.size());
  payload.insert(payload.end(), ok.principal.begin(), ok.principal.end());
  AppendFrameHeader(out, FrameType::kAuthOk, payload.size());
  out.insert(out.end(), payload.begin(), payload.end());
}

void AppendPositionUpdate(Bytes& out, std::uint32_t seq,
                          std::string_view user_id, double now_s,
                          roadnet::SegmentId segment) {
  Bytes payload;
  payload.reserve(4 + 8 + 5 + 1 + user_id.size());
  PutU32le(payload, seq);
  PutU64le(payload, std::bit_cast<std::uint64_t>(now_s));
  PutVarint(payload, roadnet::Index(segment));
  PutVarint(payload, user_id.size());
  payload.insert(payload.end(), user_id.begin(), user_id.end());
  AppendFrameHeader(out, FrameType::kPositionUpdate, payload.size());
  out.insert(out.end(), payload.begin(), payload.end());
}

void AppendReduceRequest(Bytes& out, const ReduceRequestFrame& request) {
  Bytes payload;
  PutU32le(payload, request.seq);
  PutVarint(payload, static_cast<std::uint64_t>(request.target_level));
  PutVarint(payload, request.granted_keys.size());
  for (const auto& [level, key] : request.granted_keys) {
    PutVarint(payload, static_cast<std::uint64_t>(level));
    payload.insert(payload.end(), key.bytes.begin(), key.bytes.end());
  }
  payload.insert(payload.end(), request.artifact_wire.begin(),
                 request.artifact_wire.end());
  AppendFrameHeader(out, FrameType::kReduceRequest, payload.size());
  out.insert(out.end(), payload.begin(), payload.end());
}

void AppendReduceReply(Bytes& out, const ReduceReplyFrame& reply) {
  Bytes payload;
  PutU32le(payload, reply.seq);
  if (reply.status.ok()) {
    payload.push_back(static_cast<std::uint8_t>(ErrorCode::kOk));
    PutVarint(payload, reply.segments.size());
    // Sorted ids delta-encode small.
    std::uint32_t previous = 0;
    for (const auto segment : reply.segments) {
      const std::uint32_t index = roadnet::Index(segment);
      PutVarint(payload, index - previous);
      previous = index;
    }
  } else {
    AppendStatusTail(payload, reply.status);
  }
  AppendFrameHeader(out, FrameType::kReduceReply, payload.size());
  out.insert(out.end(), payload.begin(), payload.end());
}

void AppendError(Bytes& out, const ErrorFrame& error) {
  Bytes payload;
  PutU32le(payload, error.seq);
  AppendStatusTail(payload, Status(error.code, error.message));
  AppendFrameHeader(out, FrameType::kError, payload.size());
  out.insert(out.end(), payload.begin(), payload.end());
}

Bytes ArtifactReplyPrefix(std::uint32_t seq, std::size_t artifact_bytes) {
  Bytes prefix;
  prefix.reserve(kFrameHeaderBytes + 5);
  AppendFrameHeader(prefix, FrameType::kArtifactReply,
                    4 + 1 + artifact_bytes);
  PutU32le(prefix, seq);
  prefix.push_back(static_cast<std::uint8_t>(ErrorCode::kOk));
  return prefix;
}

void AppendArtifactError(Bytes& out, std::uint32_t seq, const Status& status) {
  Bytes payload;
  PutU32le(payload, seq);
  AppendStatusTail(payload, status);
  AppendFrameHeader(out, FrameType::kArtifactReply, payload.size());
  out.insert(out.end(), payload.begin(), payload.end());
}

// ---------------------------------------------------------------- decoders

StatusOr<HelloFrame> DecodeHello(const Bytes& payload) {
  std::size_t offset = 0;
  const auto version = GetU32le(payload, &offset);
  const auto fingerprint = GetU64le(payload, &offset);
  if (!version || !fingerprint) {
    return Status::DataLoss("HELLO truncated");
  }
  HelloFrame hello;
  hello.version = *version;
  hello.map_fingerprint = *fingerprint;
  // Nonce field absent entirely (a 12-byte v1-shaped payload) reads as an
  // empty challenge; the version check rejects actual v1 peers upstream.
  if (offset < payload.size()) {
    const auto nonce_len = GetVarint(payload, &offset);
    if (!nonce_len || *nonce_len > payload.size() - offset) {
      return Status::DataLoss("HELLO truncated inside nonce");
    }
    hello.nonce.assign(
        payload.begin() + static_cast<std::ptrdiff_t>(offset),
        payload.begin() + static_cast<std::ptrdiff_t>(offset + *nonce_len));
  }
  return hello;
}

StatusOr<AuthFrame> DecodeAuth(const Bytes& payload) {
  std::size_t offset = 0;
  const auto principal_len = GetVarint(payload, &offset);
  if (!principal_len || *principal_len > payload.size() - offset) {
    return Status::DataLoss("AUTH truncated");
  }
  if (*principal_len == 0) {
    return Status::InvalidArgument("AUTH with empty principal");
  }
  AuthFrame auth;
  auth.principal.assign(
      reinterpret_cast<const char*>(payload.data() + offset), *principal_len);
  offset += *principal_len;
  if (payload.size() - offset != kAuthTagBytes) {
    return Status::DataLoss("AUTH tag must be exactly " +
                            std::to_string(kAuthTagBytes) + " bytes");
  }
  auth.tag.assign(payload.begin() + static_cast<std::ptrdiff_t>(offset),
                  payload.end());
  return auth;
}

StatusOr<AuthOkFrame> DecodeAuthOk(const Bytes& payload) {
  std::size_t offset = 0;
  const auto principal_len = GetVarint(payload, &offset);
  if (!principal_len || *principal_len > payload.size() - offset) {
    return Status::DataLoss("AUTH_OK truncated");
  }
  AuthOkFrame ok;
  ok.principal.assign(
      reinterpret_cast<const char*>(payload.data() + offset), *principal_len);
  return ok;
}

StatusOr<PositionUpdateFrame> DecodePositionUpdate(const Bytes& payload) {
  std::size_t offset = 0;
  const auto seq = GetU32le(payload, &offset);
  const auto clock_bits = GetU64le(payload, &offset);
  const auto segment = GetVarint(payload, &offset);
  const auto user_len = GetVarint(payload, &offset);
  if (!seq || !clock_bits || !segment || !user_len ||
      *user_len > payload.size() - offset) {
    return Status::DataLoss("POSITION_UPDATE truncated");
  }
  if (*segment > 0xFFFFFFFFull) {
    return Status::DataLoss("POSITION_UPDATE segment id overflows 32 bits");
  }
  if (*user_len == 0) {
    return Status::InvalidArgument("POSITION_UPDATE with empty user id");
  }
  PositionUpdateFrame update;
  update.seq = *seq;
  update.now_s = std::bit_cast<double>(*clock_bits);
  update.segment = roadnet::SegmentId{static_cast<std::uint32_t>(*segment)};
  update.user_id = std::string_view(
      reinterpret_cast<const char*>(payload.data() + offset), *user_len);
  return update;
}

StatusOr<ReduceRequestFrame> DecodeReduceRequest(const Bytes& payload) {
  std::size_t offset = 0;
  const auto seq = GetU32le(payload, &offset);
  const auto target_level = GetVarint(payload, &offset);
  const auto num_keys = GetVarint(payload, &offset);
  if (!seq || !target_level || !num_keys || *target_level > 255 ||
      *num_keys > 255) {
    return Status::DataLoss("REDUCE_REQUEST truncated or implausible");
  }
  ReduceRequestFrame request;
  request.seq = *seq;
  request.target_level = static_cast<int>(*target_level);
  for (std::uint64_t i = 0; i < *num_keys; ++i) {
    const auto level = GetVarint(payload, &offset);
    if (!level || *level > 255 ||
        payload.size() - offset < crypto::AccessKey{}.bytes.size()) {
      return Status::DataLoss("REDUCE_REQUEST truncated inside key list");
    }
    crypto::AccessKey key;
    std::memcpy(key.bytes.data(), payload.data() + offset, key.bytes.size());
    offset += key.bytes.size();
    request.granted_keys.emplace(static_cast<int>(*level), key);
  }
  request.artifact_wire.assign(payload.begin() +
                                   static_cast<std::ptrdiff_t>(offset),
                               payload.end());
  return request;
}

StatusOr<ReduceReplyFrame> DecodeReduceReply(const Bytes& payload) {
  std::size_t offset = 0;
  const auto seq = GetU32le(payload, &offset);
  if (!seq) return Status::DataLoss("REDUCE_REPLY truncated");
  Status status = Status::Ok();
  if (!DecodeStatusTail(payload, &offset, &status)) {
    return Status::DataLoss("REDUCE_REPLY truncated inside status");
  }
  ReduceReplyFrame reply;
  reply.seq = *seq;
  reply.status = status;
  if (!status.ok()) return reply;
  const auto count = GetVarint(payload, &offset);
  // Delta varints are >= 1 byte each: an implausible count fails before any
  // allocation sized by attacker-controlled data.
  if (!count || *count > payload.size() - offset + 1) {
    return Status::DataLoss("REDUCE_REPLY truncated inside segment list");
  }
  reply.segments.reserve(static_cast<std::size_t>(*count));
  std::uint64_t previous = 0;
  for (std::uint64_t i = 0; i < *count; ++i) {
    const auto delta = GetVarint(payload, &offset);
    if (!delta) return Status::DataLoss("REDUCE_REPLY truncated");
    previous += *delta;
    if (previous > 0xFFFFFFFFull) {
      return Status::DataLoss("REDUCE_REPLY segment id overflows 32 bits");
    }
    reply.segments.push_back(
        roadnet::SegmentId{static_cast<std::uint32_t>(previous)});
  }
  return reply;
}

StatusOr<ArtifactReplyView> DecodeArtifactReply(const Bytes& payload) {
  std::size_t offset = 0;
  const auto seq = GetU32le(payload, &offset);
  if (!seq) return Status::DataLoss("ARTIFACT_REPLY truncated");
  Status status = Status::Ok();
  if (!DecodeStatusTail(payload, &offset, &status)) {
    return Status::DataLoss("ARTIFACT_REPLY truncated inside status");
  }
  ArtifactReplyView reply;
  reply.seq = *seq;
  reply.status = status;
  if (status.ok()) {
    reply.artifact_wire.assign(payload.begin() +
                                   static_cast<std::ptrdiff_t>(offset),
                               payload.end());
  }
  return reply;
}

StatusOr<ErrorFrame> DecodeError(const Bytes& payload) {
  std::size_t offset = 0;
  const auto seq = GetU32le(payload, &offset);
  if (!seq) return Status::DataLoss("ERROR frame truncated");
  Status status = Status::Ok();
  if (!DecodeStatusTail(payload, &offset, &status)) {
    return Status::DataLoss("ERROR frame truncated inside status");
  }
  ErrorFrame error;
  error.seq = *seq;
  error.code = status.ok() ? ErrorCode::kInternal : status.code();
  error.message = status.message();
  return error;
}

// ------------------------------------------------------------- reassembly

Status FrameReassembler::ValidateHeaders() {
  // Walk every newly buffered header (not just the front one) so a
  // malformed frame poisons the stream the moment its 5 header bytes
  // arrive — even when complete valid frames are still queued ahead of it.
  std::size_t cursor = validated_;
  while (buffer_.size() - cursor >= kFrameHeaderBytes) {
    std::size_t offset = cursor;
    const auto length = GetU32le(buffer_, &offset);
    const std::uint8_t type = buffer_[offset];
    ++offset;
    if (!IsKnownFrameType(type)) {
      status_ =
          Status::DataLoss("unknown frame type " + std::to_string(type));
      return status_;
    }
    if (*length > max_payload_) {
      status_ = Status::ResourceExhausted(
          "frame payload of " + std::to_string(*length) + " bytes exceeds " +
          std::to_string(max_payload_) + "-byte cap");
      return status_;
    }
    if (buffer_.size() - offset < *length) break;  // body still incomplete
    cursor = offset + *length;
  }
  validated_ = cursor;
  return Status::Ok();
}

Status FrameReassembler::Feed(const std::uint8_t* data, std::size_t n) {
  RCLOAK_RETURN_IF_ERROR(status_);
  // Reclaim consumed prefix before growing (amortized O(1) per byte).
  if (consumed_ > 0 && consumed_ >= buffer_.size() / 2) {
    buffer_.erase(buffer_.begin(),
                  buffer_.begin() + static_cast<std::ptrdiff_t>(consumed_));
    validated_ -= consumed_;
    consumed_ = 0;
  }
  buffer_.insert(buffer_.end(), data, data + n);
  // Eager validation: a poisoned header is detected as soon as its 5 bytes
  // are in, before its (unbounded) declared body is ever accepted.
  return ValidateHeaders();
}

std::optional<Frame> FrameReassembler::Next() {
  if (!status_.ok()) return std::nullopt;
  // Only frames Feed validated whole are handed out; bytes only arrive
  // through Feed, so nothing past validated_ can be complete.
  if (consumed_ >= validated_) return std::nullopt;
  std::size_t offset = consumed_;
  const auto length = GetU32le(buffer_, &offset);
  const std::uint8_t type = buffer_[offset];
  ++offset;
  Frame frame;
  frame.type = static_cast<FrameType>(type);
  frame.payload.assign(
      buffer_.begin() + static_cast<std::ptrdiff_t>(offset),
      buffer_.begin() + static_cast<std::ptrdiff_t>(offset + *length));
  consumed_ = offset + *length;
  return frame;
}

}  // namespace rcloak::net
