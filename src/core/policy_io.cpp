#include "core/policy_io.hpp"

#include "util/serialize.hpp"

namespace stellaris::core {

namespace keys {
std::string trajectory(std::uint64_t id) {
  return "traj/" + std::to_string(id);
}
std::string gradient(std::uint64_t id) { return "grad/" + std::to_string(id); }
}  // namespace keys

std::vector<std::uint8_t> encode_policy(const std::vector<float>& params,
                                        std::uint64_t version) {
  ByteWriter w(wire::size_u64() + wire::size_f32_vector(params.size()));
  w.put_u64(version);
  w.put_f32_vector(params);
  return w.take();
}

std::uint64_t decode_policy_into(ByteSpan bytes, std::vector<float>& params) {
  ByteReader r(bytes);
  const std::uint64_t version = r.get_u64();
  r.get_f32_vector_into(params);
  return version;
}

std::vector<std::uint8_t> encode_checkpoint(const Checkpoint& ckpt) {
  ByteWriter w(wire::size_u64() * 2 +
               wire::size_f32_vector(ckpt.params.size()) +
               wire::size_bytes(ckpt.optimizer_state.size()));
  w.put_u64(ckpt.version);
  w.put_u64(ckpt.applied_gradients);
  w.put_f32_vector(ckpt.params);
  // Nested blob: length-prefixed raw bytes of the optimizer's own stream.
  w.put_bytes(ckpt.optimizer_state);
  return w.take();
}

Checkpoint decode_checkpoint(ByteSpan bytes) {
  Checkpoint ckpt;
  decode_checkpoint_into(bytes, ckpt);
  return ckpt;
}

void decode_checkpoint_into(ByteSpan bytes, Checkpoint& out) {
  ByteReader r(bytes);
  out.version = r.get_u64();
  out.applied_gradients = r.get_u64();
  r.get_f32_vector_into(out.params);
  r.get_bytes_into(out.optimizer_state);
}

}  // namespace stellaris::core
