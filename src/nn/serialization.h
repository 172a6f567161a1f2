#ifndef GARL_NN_SERIALIZATION_H_
#define GARL_NN_SERIALIZATION_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "nn/tensor.h"

// Binary (de)serialization of parameter lists, used to checkpoint trained
// policies.
//
// Format v2 (current): magic "GRL2", u32 version, u64 count, then per-tensor
// u32 rank / i64 shape / f32 payload, closed by a CRC-32 footer over every
// preceding byte. Files are written atomically (temp file + fsync + rename),
// so a crash mid-save can never leave a truncated file at the final path,
// and any post-crash or on-disk corruption is caught by the CRC on load.
//
// Format v1 (legacy, RETIRED): magic "GARL", u64 count, tensors, no footer.
// Loading a v1 file returns FailedPrecondition without parsing past the
// magic; the un-checksummed format no longer loads.

namespace garl::nn {

// Appends the v2 stream (header + tensors, without the CRC footer) to
// `*out`. Building block shared by file checkpoints and in-memory trainer
// snapshots.
void SerializeParameters(const std::vector<Tensor>& parameters,
                         std::string* out);

// Strict inverse of SerializeParameters: `bytes` must contain exactly one
// v2 stream whose count/ranks/shapes match `parameters`. Trailing bytes are
// rejected so count/shape corruption cannot slip through.
[[nodiscard]] Status DeserializeParameters(std::string_view bytes,
                             std::vector<Tensor>& parameters);

// Atomically writes `parameters` to `path` in format v2.
[[nodiscard]] Status SaveParameters(const std::vector<Tensor>& parameters,
                      const std::string& path);

// Loads values from `path` into `parameters` (shapes must match exactly).
// Accepts v2 only (CRC-validated before any tensor is touched); a legacy v1
// file yields FailedPrecondition.
[[nodiscard]] Status LoadParameters(const std::string& path,
                      std::vector<Tensor>& parameters);

}  // namespace garl::nn

#endif  // GARL_NN_SERIALIZATION_H_
