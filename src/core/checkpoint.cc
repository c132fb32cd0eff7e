#include "core/checkpoint.hh"

#include <fstream>
#include <iterator>

#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "util/hash.hh"
#include "util/logging.hh"

namespace socflow {
namespace core {

namespace {

/** Bytes an envelope adds around its payload: magic, len, checksum. */
constexpr std::size_t kEnvelopeOverhead = 24;

/** Slurp `path` into `out`; false when it cannot be opened. */
bool
readWholeFile(const std::string &path, std::vector<std::uint8_t> &out)
{
    std::ifstream in(path, std::ios::binary);
    out.assign(std::istreambuf_iterator<char>(in), {});
    return static_cast<bool>(in.is_open());
}

} // namespace

void
putU64(std::vector<std::uint8_t> &out, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

std::uint64_t
getU64(const std::vector<std::uint8_t> &in, std::size_t off)
{
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= std::uint64_t{in[off + i]} << (8 * i);
    return v;
}

std::uint64_t
checkpointChecksum(const std::vector<std::uint8_t> &blob)
{
    return Fnv1a64::of(blob.data(), blob.size());
}

std::vector<std::uint8_t>
sealEnvelope(std::uint64_t magic, const std::vector<std::uint8_t> &payload)
{
    std::vector<std::uint8_t> out;
    out.reserve(payload.size() + kEnvelopeOverhead);
    putU64(out, magic);
    putU64(out, payload.size());
    out.insert(out.end(), payload.begin(), payload.end());
    putU64(out, Fnv1a64::of(out.data(), out.size()));
    return out;
}

std::vector<std::uint8_t>
openEnvelope(std::uint64_t magic, const std::vector<std::uint8_t> &bytes)
{
    if (bytes.size() < kEnvelopeOverhead)
        throw CheckpointError("envelope truncated before header");
    if (getU64(bytes, 0) != magic)
        throw CheckpointError(
            "not a SoCFlow checkpoint (envelope magic mismatch)");
    // Compare against the bytes present, never len + overhead: a
    // corrupt length field must not overflow the check.
    const std::uint64_t len = getU64(bytes, 8);
    const std::uint64_t present = bytes.size() - kEnvelopeOverhead;
    if (len > present)
        throw CheckpointError("envelope truncated: " +
                              std::to_string(present) + " of " +
                              std::to_string(len) + " payload bytes");
    if (len < present)
        throw CheckpointError("envelope size mismatch: " +
                              std::to_string(present - len) +
                              " bytes past the declared payload");
    const std::size_t sumAt = bytes.size() - 8;
    if (Fnv1a64::of(bytes.data(), sumAt) != getU64(bytes, sumAt))
        throw CheckpointError("envelope checksum mismatch (corrupt)");
    return std::vector<std::uint8_t>(bytes.begin() + 16,
                                     bytes.begin() + sumAt);
}

void
writeCheckpointFile(const std::string &path,
                    const std::vector<std::uint8_t> &blob)
{
    obs::ScopedSpan span(obs::tracer(), "writeCheckpointFile",
                         "checkpoint");
    obs::metrics()
        .counter("checkpoint_file_writes_total")
        .add(1.0);
    obs::metrics()
        .counter("checkpoint_file_bytes_written_total")
        .add(static_cast<double>(blob.size()));
    const std::vector<std::uint8_t> sealed = sealEnvelope(kFileMagic, blob);
    std::ofstream out(path, std::ios::binary);
    if (!out)
        fatal("cannot open checkpoint for writing: ", path);
    out.write(reinterpret_cast<const char *>(sealed.data()),
              static_cast<std::streamsize>(sealed.size()));
    out.close();
    if (!out)
        fatal("failed to write checkpoint: ", path);
}

std::vector<std::uint8_t>
readCheckpointFile(const std::string &path)
{
    obs::ScopedSpan span(obs::tracer(), "readCheckpointFile",
                         "checkpoint");
    obs::metrics().counter("checkpoint_file_reads_total").add(1.0);
    std::vector<std::uint8_t> bytes;
    if (!readWholeFile(path, bytes))
        fatal("cannot open checkpoint: ", path);
    try {
        return openEnvelope(kFileMagic, bytes);
    } catch (const CheckpointError &e) {
        fatal(e.what(), ": ", path);
    }
}

bool
isCheckpointFile(const std::string &path)
{
    std::vector<std::uint8_t> bytes;
    if (!readWholeFile(path, bytes))
        return false;
    try {
        (void)openEnvelope(kFileMagic, bytes);
        return true;
    } catch (const CheckpointError &) {
        return false;
    }
}

} // namespace core
} // namespace socflow
