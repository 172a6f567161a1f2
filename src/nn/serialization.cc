#include "nn/serialization.h"

#include <cstdint>
#include <cstdio>
#include <cstring>

#include "common/fs_util.h"
#include "common/string_util.h"

namespace garl::nn {

namespace {

constexpr uint32_t kMagicV1 = 0x4741524Cu;  // "GARL"
constexpr uint32_t kMagicV2 = 0x47524C32u;  // "GRL2"
constexpr uint32_t kVersion = 2;

template <typename T>
void AppendPod(std::string* out, T value) {
  out->append(reinterpret_cast<const char*>(&value), sizeof(T));
}

// Sequential little-endian reader over a byte buffer; every read is
// bounds-checked so truncated or corrupted input degrades to a Status,
// never an out-of-range access.
class Cursor {
 public:
  explicit Cursor(std::string_view bytes) : bytes_(bytes) {}

  template <typename T>
  bool Read(T* value) {
    if (bytes_.size() - pos_ < sizeof(T)) return false;
    std::memcpy(value, bytes_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return true;
  }

  bool ReadFloats(std::vector<float>& dst) {
    size_t want = dst.size() * sizeof(float);
    if (want == 0) return true;
    if (bytes_.size() - pos_ < want) return false;
    std::memcpy(dst.data(), bytes_.data() + pos_, want);
    pos_ += want;
    return true;
  }

  bool AtEnd() const { return pos_ == bytes_.size(); }

 private:
  std::string_view bytes_;
  size_t pos_ = 0;
};

// Parses the tensor list (everything after the v2 header).
Status ParseTensors(Cursor& cursor, uint64_t count,
                    std::vector<Tensor>& parameters,
                    const std::string& origin) {
  if (count != parameters.size()) {
    return InvalidArgumentError(StrPrintf(
        "parameter count mismatch: file has %llu, model has %zu",
        static_cast<unsigned long long>(count), parameters.size()));
  }
  for (Tensor& p : parameters) {
    uint32_t rank = 0;
    if (!cursor.Read(&rank) || rank != static_cast<uint32_t>(p.dim())) {
      return InvalidArgumentError("tensor rank mismatch in " + origin);
    }
    for (int64_t expected : p.shape()) {
      int64_t dim = 0;
      if (!cursor.Read(&dim) || dim != expected) {
        return InvalidArgumentError("tensor shape mismatch in " + origin);
      }
    }
    if (!cursor.ReadFloats(p.mutable_data())) {
      return InvalidArgumentError("truncated checkpoint: " + origin);
    }
  }
  if (!cursor.AtEnd()) {
    return InvalidArgumentError("trailing bytes after last tensor in " +
                                origin);
  }
  return Status::Ok();
}

}  // namespace

void SerializeParameters(const std::vector<Tensor>& parameters,
                         std::string* out) {
  AppendPod(out, kMagicV2);
  AppendPod(out, kVersion);
  AppendPod(out, static_cast<uint64_t>(parameters.size()));
  for (const Tensor& p : parameters) {
    AppendPod(out, static_cast<uint32_t>(p.dim()));
    for (int64_t d : p.shape()) AppendPod(out, d);
    if (p.numel() > 0) {
      out->append(reinterpret_cast<const char*>(p.data().data()),
                  static_cast<size_t>(p.numel()) * sizeof(float));
    }
  }
}

Status DeserializeParameters(std::string_view bytes,
                             std::vector<Tensor>& parameters) {
  Cursor cursor(bytes);
  uint32_t magic = 0, version = 0;
  uint64_t count = 0;
  if (!cursor.Read(&magic) || magic != kMagicV2) {
    return InvalidArgumentError("bad parameter stream magic");
  }
  if (!cursor.Read(&version) || version != kVersion) {
    return InvalidArgumentError(
        StrPrintf("unsupported parameter stream version %u", version));
  }
  if (!cursor.Read(&count)) {
    return InvalidArgumentError("truncated parameter stream header");
  }
  return ParseTensors(cursor, count, parameters, "parameter stream");
}

Status SaveParameters(const std::vector<Tensor>& parameters,
                      const std::string& path) {
  std::string payload;
  SerializeParameters(parameters, &payload);
  AppendPod(&payload, Crc32(payload));
  return WriteFileDurable(path, payload);
}

Status LoadParameters(const std::string& path,
                      std::vector<Tensor>& parameters) {
  StatusOr<std::string> contents = ReadFileToString(path);
  if (!contents.ok()) return contents.status();
  const std::string& bytes = contents.value();
  if (bytes.size() < sizeof(uint32_t)) {
    return InvalidArgumentError("bad checkpoint header: " + path);
  }
  uint32_t magic = 0;
  std::memcpy(&magic, bytes.data(), sizeof(magic));

  if (magic == kMagicV2) {
    if (bytes.size() < 2 * sizeof(uint32_t)) {
      return InvalidArgumentError("truncated checkpoint: " + path);
    }
    size_t payload_size = bytes.size() - sizeof(uint32_t);
    uint32_t stored_crc = 0;
    std::memcpy(&stored_crc, bytes.data() + payload_size, sizeof(stored_crc));
    uint32_t actual_crc = Crc32(bytes.data(), payload_size);
    if (stored_crc != actual_crc) {
      return InvalidArgumentError(StrPrintf(
          "checkpoint CRC mismatch in %s: stored %08x, computed %08x",
          path.c_str(), stored_crc, actual_crc));
    }
    return DeserializeParameters(
        std::string_view(bytes.data(), payload_size), parameters);
  }

  if (magic == kMagicV1) {
    // v1 (no CRC footer) is retired: silently loading un-checksummed bytes
    // undermines the end-to-end integrity story. Detection reads the magic
    // only; the rest of the file is never parsed.
    return FailedPreconditionError(StrPrintf(
        "%s is a retired v1 checkpoint (no CRC footer); only format v2 "
        "loads — re-save the parameters as v2",
        path.c_str()));
  }

  return InvalidArgumentError("bad checkpoint header: " + path);
}

}  // namespace garl::nn
