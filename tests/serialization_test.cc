#include "nn/serialization.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "common/fs_util.h"
#include "common/rng.h"
#include "nn/optimizer.h"

// Crash-safety and corruption-rejection coverage for the v2 checkpoint
// format: CRC known answers, atomic replacement, legacy v1 retirement and
// one-shot migration, strict trailing-byte rejection, and truncation/bit-flip
// fuzzing. Every
// corrupted input must come back as a non-OK Status — never an abort, never
// silently loaded garbage.

namespace garl::nn {
namespace {

namespace fs = std::filesystem;

std::string TestPath(const std::string& name) {
  return (fs::path(::testing::TempDir()) / name).string();
}

std::vector<Tensor> MakeParams(uint64_t seed) {
  Rng rng(seed);
  std::vector<float> a(12), b(5);
  for (float& v : a) v = rng.NormalF();
  for (float& v : b) v = rng.NormalF();
  return {Tensor::FromVector({3, 4}, a, /*requires_grad=*/true),
          Tensor::FromVector({5}, b, /*requires_grad=*/true)};
}

std::string ReadAll(const std::string& path) {
  StatusOr<std::string> contents = ReadFileToString(path);
  EXPECT_TRUE(contents.ok()) << contents.status().ToString();
  return contents.ok() ? contents.value() : std::string();
}

void WriteRaw(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good());
}

TEST(Crc32Test, KnownAnswers) {
  // IEEE 802.3 check value for the standard 9-byte test vector.
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(Crc32(""), 0x00000000u);
  EXPECT_EQ(Crc32("garl"), Crc32("garl"));
  EXPECT_NE(Crc32("garl"), Crc32("gArl"));
}

TEST(Crc32Test, SeedChainsIncrementalUpdates) {
  std::string text = "air-ground spatial crowdsourcing";
  uint32_t whole = Crc32(text);
  uint32_t chained = Crc32(text.substr(7), Crc32(text.substr(0, 7)));
  EXPECT_EQ(whole, chained);
}

TEST(AtomicWriteFileTest, CreatesReplacesAndLeavesNoTempFile) {
  std::string path = TestPath("atomic_write.bin");
  ASSERT_TRUE(AtomicWriteFile(path, "first").ok());
  EXPECT_EQ(ReadAll(path), "first");
  ASSERT_TRUE(AtomicWriteFile(path, "second, longer contents").ok());
  EXPECT_EQ(ReadAll(path), "second, longer contents");
  EXPECT_FALSE(fs::exists(path + ".tmp"));
}

TEST(AtomicWriteFileTest, FailsCleanlyOnMissingDirectory) {
  Status status =
      AtomicWriteFile(TestPath("no_such_dir/x.bin"), "payload");
  EXPECT_FALSE(status.ok());
}

TEST(SerializationTest, V2RoundTrip) {
  std::string path = TestPath("round_trip.bin");
  std::vector<Tensor> saved = MakeParams(1);
  ASSERT_TRUE(SaveParameters(saved, path).ok());
  std::vector<Tensor> loaded = MakeParams(2);
  ASSERT_TRUE(LoadParameters(path, loaded).ok());
  for (size_t i = 0; i < saved.size(); ++i) {
    EXPECT_EQ(loaded[i].data(), saved[i].data());
  }
}

TEST(SerializationTest, BufferRoundTripIsStrict) {
  std::vector<Tensor> saved = MakeParams(3);
  std::string bytes;
  SerializeParameters(saved, &bytes);
  std::vector<Tensor> loaded = MakeParams(4);
  ASSERT_TRUE(DeserializeParameters(bytes, loaded).ok());
  for (size_t i = 0; i < saved.size(); ++i) {
    EXPECT_EQ(loaded[i].data(), saved[i].data());
  }
  // One extra byte anywhere must be rejected.
  EXPECT_FALSE(DeserializeParameters(bytes + "x", loaded).ok());
  EXPECT_FALSE(
      DeserializeParameters(std::string_view(bytes.data(), bytes.size() - 1),
                            loaded)
          .ok());
}

TEST(SerializationTest, RejectsTrailingGarbageEvenWithValidCrc) {
  std::string path = TestPath("trailing.bin");
  std::vector<Tensor> params = MakeParams(5);
  ASSERT_TRUE(SaveParameters(params, path).ok());
  // Rebuild the file as payload + garbage + CRC(payload + garbage): the
  // footer is consistent, so only the strict tensor parser can catch it.
  std::string bytes = ReadAll(path);
  std::string payload = bytes.substr(0, bytes.size() - 4);
  payload += "\xde\xad\xbe\xef";
  uint32_t crc = Crc32(payload);
  payload.append(reinterpret_cast<const char*>(&crc), sizeof(crc));
  WriteRaw(path, payload);
  Status status = LoadParameters(path, params);
  EXPECT_FALSE(status.ok()) << "trailing garbage accepted";
}

TEST(SerializationTest, CountAndShapeMismatchesRejected) {
  std::string path = TestPath("mismatch.bin");
  ASSERT_TRUE(SaveParameters(MakeParams(6), path).ok());
  std::vector<Tensor> fewer = {MakeParams(6)[0]};
  EXPECT_FALSE(LoadParameters(path, fewer).ok());
  std::vector<Tensor> reshaped = {
      Tensor::Zeros({4, 3}, /*requires_grad=*/true),
      Tensor::Zeros({5}, /*requires_grad=*/true)};
  EXPECT_FALSE(LoadParameters(path, reshaped).ok());
}

// Hand-writes the retired v1 layout: magic "GARL", u64 count, then
// rank/shape/payload per tensor (no CRC footer).
std::string MakeV1Bytes(const std::vector<Tensor>& params) {
  std::string bytes;
  uint32_t magic = 0x4741524Cu;
  uint64_t count = params.size();
  bytes.append(reinterpret_cast<const char*>(&magic), sizeof(magic));
  bytes.append(reinterpret_cast<const char*>(&count), sizeof(count));
  for (const Tensor& p : params) {
    uint32_t rank = static_cast<uint32_t>(p.dim());
    bytes.append(reinterpret_cast<const char*>(&rank), sizeof(rank));
    for (int64_t d : p.shape()) {
      bytes.append(reinterpret_cast<const char*>(&d), sizeof(d));
    }
    bytes.append(reinterpret_cast<const char*>(p.data().data()),
                 static_cast<size_t>(p.numel()) * sizeof(float));
  }
  return bytes;
}

TEST(SerializationTest, LegacyV1IsRetiredAndPointsAtMigration) {
  std::string path = TestPath("legacy_v1.bin");
  std::string bytes = MakeV1Bytes(MakeParams(7));
  WriteRaw(path, bytes);
  std::vector<Tensor> loaded = MakeParams(8);
  Status status = LoadParameters(path, loaded);
  ASSERT_FALSE(status.ok()) << "retired v1 format loaded";
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(status.message().find("v1"), std::string::npos)
      << status.ToString();
  // Detection stops at the magic: a v1 header over bytes that would fail any
  // parse (truncated payload, absurd tensor count) gets the same clean
  // FailedPrecondition, never a parse error.
  WriteRaw(path, bytes.substr(0, bytes.size() - 3));
  EXPECT_EQ(LoadParameters(path, loaded).code(),
            StatusCode::kFailedPrecondition);
  std::string garbage = bytes.substr(0, 4) + std::string(8, '\xff');
  WriteRaw(path, garbage);
  EXPECT_EQ(LoadParameters(path, loaded).code(),
            StatusCode::kFailedPrecondition);
  const std::vector<Tensor> untouched = MakeParams(8);
  for (size_t i = 0; i < loaded.size(); ++i) {
    EXPECT_EQ(loaded[i].data(), untouched[i].data()) << i;
  }
}

TEST(SerializationFuzzTest, TruncationAtEvery64ByteBoundaryRejected) {
  std::string path = TestPath("truncate.bin");
  ASSERT_TRUE(SaveParameters(MakeParams(9), path).ok());
  std::string bytes = ReadAll(path);
  ASSERT_GT(bytes.size(), 64u);
  std::vector<Tensor> scratch = MakeParams(10);
  for (size_t cut = 0; cut < bytes.size(); cut += 64) {
    WriteRaw(path, bytes.substr(0, cut));
    Status status = LoadParameters(path, scratch);
    EXPECT_FALSE(status.ok()) << "accepted truncation at " << cut;
  }
  // Off-by-one around the footer as well.
  WriteRaw(path, bytes.substr(0, bytes.size() - 1));
  EXPECT_FALSE(LoadParameters(path, scratch).ok());
}

TEST(SerializationFuzzTest, BitFlipsAnywhereRejected) {
  std::string path = TestPath("bitflip.bin");
  ASSERT_TRUE(SaveParameters(MakeParams(11), path).ok());
  std::string bytes = ReadAll(path);
  std::vector<Tensor> scratch = MakeParams(12);
  // Every header byte, then every 7th payload/footer byte.
  for (size_t pos = 0; pos < bytes.size(); pos += (pos < 16 ? 1 : 7)) {
    std::string corrupted = bytes;
    corrupted[pos] = static_cast<char>(corrupted[pos] ^ 0x40);
    WriteRaw(path, corrupted);
    Status status = LoadParameters(path, scratch);
    EXPECT_FALSE(status.ok()) << "accepted bit flip at " << pos;
  }
}

TEST(AdamStateTest, RoundTripContinuesBitIdentically) {
  // Train two Adams in lockstep for 3 steps, checkpoint one, keep stepping
  // both, and check the restored copy produces identical parameters.
  std::string path = TestPath("adam_state.bin");
  auto run_steps = [](Adam& adam, std::vector<Tensor>& params, int steps,
                      float grad_seed) {
    for (int s = 0; s < steps; ++s) {
      adam.ZeroGrad();
      for (size_t i = 0; i < params.size(); ++i) {
        auto& grad = params[i].impl()->grad;
        for (size_t j = 0; j < grad.size(); ++j) {
          grad[j] = grad_seed * (static_cast<float>(s + 1)) *
                    (static_cast<float>(j % 5) - 2.0f);
        }
      }
      adam.Step();
    }
  };
  std::vector<Tensor> params_a = MakeParams(30);
  std::vector<Tensor> params_b = MakeParams(30);
  Adam adam_a(params_a, 1e-2f);
  Adam adam_b(params_b, 1e-2f);
  run_steps(adam_a, params_a, 3, 0.3f);
  run_steps(adam_b, params_b, 3, 0.3f);
  ASSERT_TRUE(adam_a.SaveState(path).ok());

  // Fresh optimizer with fresh moments; restoring must resume exactly.
  std::vector<Tensor> params_c = MakeParams(30);
  for (size_t i = 0; i < params_c.size(); ++i) {
    params_c[i].mutable_data() = params_a[i].data();
  }
  Adam adam_c(params_c, 99.0f);  // lr overwritten by the checkpoint
  ASSERT_TRUE(adam_c.LoadState(path).ok());
  EXPECT_FLOAT_EQ(adam_c.lr(), 1e-2f);
  run_steps(adam_b, params_b, 2, -0.7f);
  run_steps(adam_c, params_c, 2, -0.7f);
  for (size_t i = 0; i < params_b.size(); ++i) {
    EXPECT_EQ(params_c[i].data(), params_b[i].data());
  }
}

TEST(AdamStateTest, CorruptionAndMismatchRejected) {
  std::string path = TestPath("adam_corrupt.bin");
  std::vector<Tensor> params = MakeParams(31);
  Adam adam(params, 1e-3f);
  ASSERT_TRUE(adam.SaveState(path).ok());
  std::string bytes = ReadAll(path);

  for (size_t cut = 0; cut < bytes.size(); cut += 64) {
    WriteRaw(path, bytes.substr(0, cut));
    EXPECT_FALSE(adam.LoadState(path).ok()) << "truncation at " << cut;
  }
  std::string corrupted = bytes;
  corrupted[bytes.size() / 2] ^= 0x01;
  WriteRaw(path, corrupted);
  EXPECT_FALSE(adam.LoadState(path).ok());

  // State written for a differently-shaped parameter list.
  std::vector<Tensor> other = {Tensor::Zeros({7}, /*requires_grad=*/true)};
  Adam mismatched(other, 1e-3f);
  WriteRaw(path, bytes);
  EXPECT_FALSE(mismatched.LoadState(path).ok());
}

TEST(RngStateTest, SerializeRestoreResumesStream) {
  Rng rng(77);
  (void)rng.Uniform(0.0, 1.0);
  std::string state = rng.SerializeState();
  std::vector<double> expect;
  for (int i = 0; i < 8; ++i) expect.push_back(rng.Uniform(0.0, 1.0));
  Rng restored(1);
  ASSERT_TRUE(restored.DeserializeState(state).ok());
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(restored.Uniform(0.0, 1.0), expect[static_cast<size_t>(i)]);
  }
  EXPECT_FALSE(restored.DeserializeState("not an rng state").ok());
}

}  // namespace
}  // namespace garl::nn
