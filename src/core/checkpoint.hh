/**
 * @file
 * The checkpoint envelope codec: every durable byte string is
 *
 *   [magic u64][len u64][payload, len bytes][FNV-1a u64 of all prior]
 *
 * (little-endian, 24 bytes around the payload). The magic names the
 * artifact, and openEnvelope() opens no other:
 *
 *   kBlobMagic      SoCFlowTrainer::saveCheckpoint(); payload is
 *                   [epoch u64][alpha f64][weights f32 x n]
 *   kFileMagic      writeCheckpointFile(); payload is a trainer blob
 *   kReplicaMagic   ckpt::ReplicatedCkptStore data copies
 *   kManifestMagic  ckpt::ReplicatedCkptStore manifests
 *
 * openEnvelope() throws CheckpointError naming the failure class:
 * "truncated" (short of the header or of the declared length), "size
 * mismatch" (bytes past it), "not a SoCFlow checkpoint (envelope
 * magic mismatch)" or "checksum mismatch". It bounds-checks before it
 * reads and allocates only the payload it returns, so no single-byte
 * corruption -- a length field included -- ever opens or crashes.
 */

#ifndef SOCFLOW_CORE_CHECKPOINT_HH
#define SOCFLOW_CORE_CHECKPOINT_HH

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace socflow {
namespace core {

/**
 * A malformed or corrupted envelope. Thrown (not fatal) so a
 * scheduler holding many checkpoints can skip a bad one and keep the
 * trainer usable (loadCheckpoint() validates before it mutates). The
 * *file* helpers treat a bad file as a user error (fatal) instead.
 */
class CheckpointError : public std::runtime_error
{
  public:
    explicit CheckpointError(const std::string &what_arg)
        : std::runtime_error(what_arg)
    {
    }
};

/** Trainer checkpoint blob ("SFCKPT1\0"). */
constexpr std::uint64_t kBlobMagic = 0x5346434b50543100ULL;
/** Checkpoint file on disk ("SOCFLOW1"). */
constexpr std::uint64_t kFileMagic = 0x534f43464c4f5731ULL;

/** Seal `payload` under `magic`. */
std::vector<std::uint8_t> sealEnvelope(
    std::uint64_t magic, const std::vector<std::uint8_t> &payload);

/** Validate an envelope sealed with `magic`; return its payload. */
std::vector<std::uint8_t> openEnvelope(
    std::uint64_t magic, const std::vector<std::uint8_t> &bytes);

/** Append `v` little-endian (the envelope's word encoding). */
void putU64(std::vector<std::uint8_t> &out, std::uint64_t v);

/** Read a little-endian word at `off` (caller bounds-checks). */
std::uint64_t getU64(const std::vector<std::uint8_t> &in,
                     std::size_t off);

/** Write `blob` to `path` as a kFileMagic envelope (fatal on I/O
 *  failure). */
void writeCheckpointFile(const std::string &path,
                         const std::vector<std::uint8_t> &blob);

/** Read a blob back; "cannot open" and every openEnvelope() failure
 *  are fatal (exit 1). */
std::vector<std::uint8_t> readCheckpointFile(const std::string &path);

/** True when `path` opens as a kFileMagic envelope. */
bool isCheckpointFile(const std::string &path);

/** FNV-1a 64 of `blob` (the envelope checksum; exposed for tests). */
std::uint64_t checkpointChecksum(const std::vector<std::uint8_t> &blob);

} // namespace core
} // namespace socflow

#endif // SOCFLOW_CORE_CHECKPOINT_HH
