#include "workload_gen.hh"

#include <cstdio>
#include <limits>
#include <map>
#include <mutex>
#include <sstream>

#include "common/log.hh"
#include "common/random.hh"
#include "common/spec.hh"
#include "isa/builder.hh"
#include "workloads/workloads.hh"

namespace mcd {
namespace fuzz {

namespace {

// Register conventions of generated programs. The fixed kernels use
// the same split: low registers for scratch, high ones for globals.
constexpr int rChk = 28;        //!< running checksum accumulator
constexpr int rCnt = 27;        //!< loop counter
constexpr int rPtr = 26;        //!< MemStream walk pointer
constexpr int rLcg = 25;        //!< Branchy LCG state
constexpr int rEnd = 24;        //!< MemStream block end
constexpr int rAux = 23;        //!< threshold / stride constant
constexpr int rBase = 22;       //!< MemStream block base

int
clampInt(std::uint64_t v, int lo, int hi)
{
    int x = static_cast<int>(v);
    return x < lo ? lo : (x > hi ? hi : x);
}

void
emitIntChain(Builder &b, const PhaseParams &p, int scale, Rng &rng)
{
    // Seed the chain inputs r1..r(1+depth) with phase constants; the
    // loop body is one serial dependence chain through r1, so
    // chainDepth directly sets the attainable ILP of the phase.
    int depth = clampInt(static_cast<std::uint64_t>(p.chainDepth), 1, 8);
    for (int k = 0; k <= depth; ++k)
        b.li(1 + k, static_cast<std::int64_t>(rng.next() >> 16));
    b.li(rCnt, static_cast<std::int64_t>(p.iters) * scale);
    Label top = b.here();
    for (int k = 0; k < depth; ++k) {
        int src = 2 + (k % depth);
        switch (k % 4) {
          case 0: b.add(1, 1, src); break;
          case 1: b.xor_(1, 1, src); break;
          case 2: b.sub(1, 1, src); break;
          case 3: b.mul(1, 1, src); break;
        }
    }
    b.add(rChk, rChk, 1);
    b.addi(rCnt, rCnt, -1);
    b.bne(rCnt, reg::zero, top);
}

void
emitFpChain(Builder &b, const PhaseParams &p, int scale, Rng &rng)
{
    // Bounded FP chain: alternating fadd/fsub of constants in [0, 1)
    // keeps |f1| <= iters*depth, so the final ftoi can never leave
    // int64 range (which would be undefined behaviour in the
    // functional executor). fadd/fsub are IEEE-exact: bit-identical
    // everywhere.
    int depth = clampInt(static_cast<std::uint64_t>(p.chainDepth), 1, 8);
    std::uint64_t addr0 = 0;
    for (int k = 0; k <= depth; ++k) {
        std::uint64_t a = b.dataDouble(rng.uniform());
        if (k == 0)
            addr0 = a;
    }
    b.li(1, static_cast<std::int64_t>(addr0));
    for (int k = 0; k <= depth; ++k)
        b.fld(1 + k, 1, 8 * k);
    b.li(rCnt, static_cast<std::int64_t>(p.iters) * scale);
    Label top = b.here();
    for (int k = 0; k < depth; ++k) {
        int src = 2 + (k % depth);
        if (k % 2 == 0)
            b.fadd(1, 1, src);
        else
            b.fsub(1, 1, src);
    }
    b.addi(rCnt, rCnt, -1);
    b.bne(rCnt, reg::zero, top);
    b.ftoi(1, 1);
    b.add(rChk, rChk, 1);
}

void
emitMemStream(Builder &b, const PhaseParams &p, int scale, Rng &rng)
{
    int foot = clampInt(static_cast<std::uint64_t>(p.footprintWords),
                        16, 1 << 16);
    int stride = clampInt(static_cast<std::uint64_t>(p.stride), 1, 64);
    std::uint64_t base = b.dataBlock(static_cast<std::size_t>(foot));
    for (int i = 0; i < foot; ++i)
        b.setDataWord(base + 8 * static_cast<std::uint64_t>(i),
                      rng.next());
    b.li(rBase, static_cast<std::int64_t>(base));
    b.li(rEnd, static_cast<std::int64_t>(base + 8 *
                                         static_cast<std::uint64_t>(foot)));
    b.li(rAux, 8 * stride);
    b.mv(rPtr, rBase);
    b.li(rCnt, static_cast<std::int64_t>(p.iters) * scale);
    Label top = b.here();
    b.ld(1, rPtr, 0);
    b.xor_(rChk, rChk, 1);
    b.st(rChk, rPtr, 0);        // write traffic back into the set
    b.add(rPtr, rPtr, rAux);
    Label inRange = b.newLabel();
    b.blt(rPtr, rEnd, inRange);
    b.mv(rPtr, rBase);          // wrap: footprint bounds the set
    b.bind(inRange);
    b.addi(rCnt, rCnt, -1);
    b.bne(rCnt, reg::zero, top);
}

void
emitBranchy(Builder &b, const PhaseParams &p, int scale, Rng &rng)
{
    // LCG-driven two-way branch: the taken probability (and so the
    // predictor's attainable accuracy) is takenPercent, threshold
    // against the high bits of the generator state.
    int taken = clampInt(static_cast<std::uint64_t>(p.takenPercent),
                         0, 100);
    b.li(rLcg, static_cast<std::int64_t>(rng.next() | 1));
    b.li(2, static_cast<std::int64_t>(6364136223846793005ULL));
    b.li(rAux, taken * 128 / 100);
    b.li(rCnt, static_cast<std::int64_t>(p.iters) * scale);
    Label top = b.here();
    b.mul(rLcg, rLcg, 2);
    b.addi(rLcg, rLcg, 12345);
    b.srli(1, rLcg, 33);
    b.andi(1, 1, 127);
    Label onTaken = b.newLabel();
    Label done = b.newLabel();
    b.blt(1, rAux, onTaken);
    b.xor_(rChk, rChk, rLcg);   // not-taken arm
    b.j(done);
    b.bind(onTaken);
    b.add(rChk, rChk, rLcg);    // taken arm
    b.bind(done);
    b.addi(rCnt, rCnt, -1);
    b.bne(rCnt, reg::zero, top);
}

} // namespace

const char *
phaseKindName(PhaseKind k)
{
    switch (k) {
      case PhaseKind::IntChain: return "int";
      case PhaseKind::FpChain: return "fp";
      case PhaseKind::MemStream: return "mem";
      case PhaseKind::Branchy: return "branch";
    }
    return "?";
}

GenParams
GenParams::fromSeed(std::uint64_t seed)
{
    Rng rng = streamRng(seed, "fuzz.gen");
    GenParams p;
    p.seed = seed;
    int n = 1 + static_cast<int>(rng.uniformInt(4));
    for (int i = 0; i < n; ++i) {
        PhaseParams ph;
        ph.kind = static_cast<PhaseKind>(rng.uniformInt(4));
        // Long enough that a DVFS re-lock window is a small fraction
        // of a phase, as with the fixed kernels — the dilation
        // invariant is meaningless on programs shorter than one
        // re-lock (and the soak would drown in scale artifacts).
        ph.iters = 1000 + static_cast<int>(rng.uniformInt(4001));
        ph.chainDepth = 1 + static_cast<int>(rng.uniformInt(8));
        ph.footprintWords = 64 << rng.uniformInt(6);
        ph.stride = 1 + static_cast<int>(rng.uniformInt(8));
        ph.takenPercent = static_cast<int>(rng.uniformInt(101));
        p.phases.push_back(ph);
    }
    return p;
}

std::string
GenParams::spec() const
{
    std::string out = "seed=" + std::to_string(seed);
    for (const PhaseParams &ph : phases) {
        out += ";phase=";
        out += phaseKindName(ph.kind);
        out += ":" + std::to_string(ph.iters);
        out += ":" + std::to_string(ph.chainDepth);
        out += ":" + std::to_string(ph.footprintWords);
        out += ":" + std::to_string(ph.stride);
        out += ":" + std::to_string(ph.takenPercent);
    }
    return out;
}

GenParams
GenParams::fromSpec(const std::string &text)
{
    const std::string what = "GenParams: malformed spec '" + text + "'";
    auto bad = [&](const std::string &why) {
        fatal(what + ": " + why +
              " (grammar: seed=N;phase=<kind>:<iters>:<chain>:"
              "<foot>:<stride>:<taken>;...)");
    };
    GenParams p;
    bool sawSeed = false;
    for (const std::string &item : spec::split(text, ';')) {
        auto [key, body] = spec::keyValue(what, item);
        if (key == "seed") {
            p.seed = spec::parseU64(what + ": seed", body);
            sawSeed = true;
            continue;
        }
        if (key != "phase")
            bad("unknown item '" + item + "'");
        // Not spec::split: an empty field must count, and fail.
        std::vector<std::string> f;
        std::string field;
        std::istringstream fs(body);
        while (std::getline(fs, field, ':'))
            f.push_back(field);
        if (f.size() != 6)
            bad("phase needs 6 ':'-separated fields");
        PhaseParams ph;
        if (f[0] == "int")
            ph.kind = PhaseKind::IntChain;
        else if (f[0] == "fp")
            ph.kind = PhaseKind::FpChain;
        else if (f[0] == "mem")
            ph.kind = PhaseKind::MemStream;
        else if (f[0] == "branch")
            ph.kind = PhaseKind::Branchy;
        else
            bad("unknown phase kind '" + f[0] + "'");
        int *dst[5] = {&ph.iters, &ph.chainDepth, &ph.footprintWords,
                       &ph.stride, &ph.takenPercent};
        for (int i = 0; i < 5; ++i) {
            *dst[i] = static_cast<int>(spec::parseInt(
                what + ": phase field " + std::to_string(i + 1), f[i + 1],
                std::numeric_limits<int>::min(),
                std::numeric_limits<int>::max()));
        }
        if (ph.iters < 1)
            bad("phase iters must be >= 1");
        p.phases.push_back(ph);
    }
    if (!sawSeed)
        bad("missing seed=");
    if (p.phases.empty())
        bad("at least one phase required");
    return p;
}

std::string
GenParams::workloadName() const
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "fuzz-%016llx",
                  static_cast<unsigned long long>(fnv1a(spec())));
    return buf;
}

Program
GenParams::generate(int scale) const
{
    if (phases.empty())
        fatal("GenParams::generate: no phases");
    if (scale < 1)
        fatal("GenParams::generate: scale must be >= 1");
    Builder b(workloadName());
    Rng data = streamRng(seed, "fuzz.data");
    b.li(rChk, static_cast<std::int64_t>(
             streamSeed(seed, "fuzz.checksum")));
    for (const PhaseParams &ph : phases) {
        switch (ph.kind) {
          case PhaseKind::IntChain:
            emitIntChain(b, ph, scale, data);
            break;
          case PhaseKind::FpChain:
            emitFpChain(b, ph, scale, data);
            break;
          case PhaseKind::MemStream:
            emitMemStream(b, ph, scale, data);
            break;
          case PhaseKind::Branchy:
            emitBranchy(b, ph, scale, data);
            break;
        }
    }
    b.mv(checksumReg, rChk);
    b.halt();
    return b.build();
}

namespace {

std::mutex internMutex;
std::map<std::string, GenParams> &
internTable()
{
    static std::map<std::string, GenParams> table;
    return table;
}

Program
buildInterned(const std::string &name, int scale)
{
    const GenParams *p = findWorkload(name);
    if (!p)
        fatal("generated workload '" + name +
              "' was never interned in this process (replay the "
              "scenario through its repro file, which carries the "
              "generator spec)");
    return p->generate(scale);
}

} // namespace

std::string
internWorkload(const GenParams &params)
{
    std::string name = params.workloadName();
    static std::once_flag once;
    std::call_once(once, [] {
        workloads::registerGenerator("fuzz-", buildInterned);
    });
    std::lock_guard<std::mutex> lock(internMutex);
    internTable().emplace(name, params);
    return name;
}

const GenParams *
findWorkload(const std::string &name)
{
    std::lock_guard<std::mutex> lock(internMutex);
    auto it = internTable().find(name);
    return it == internTable().end() ? nullptr : &it->second;
}

} // namespace fuzz
} // namespace mcd
