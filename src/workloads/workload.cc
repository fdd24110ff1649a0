#include "workloads/workload.hh"

#include "asm/assembler.hh"
#include "common/logging.hh"
#include "cpu/inst_stream.hh"
#include "cpu/loader.hh"

namespace dise {

const char *
watchSelName(WatchSel sel)
{
    switch (sel) {
      case WatchSel::HOT: return "HOT";
      case WatchSel::WARM1: return "WARM1";
      case WatchSel::WARM2: return "WARM2";
      case WatchSel::COLD: return "COLD";
      case WatchSel::INDIRECT: return "INDIRECT";
      case WatchSel::RANGE: return "RANGE";
    }
    return "?";
}

WatchSel
watchSelFromName(const std::string &name)
{
    for (WatchSel s :
         {WatchSel::HOT, WatchSel::WARM1, WatchSel::WARM2, WatchSel::COLD,
          WatchSel::INDIRECT, WatchSel::RANGE}) {
        if (name == watchSelName(s))
            return s;
    }
    fatal("unknown watchpoint selector '", name, "'");
}

WatchSpec
Workload::watch(WatchSel sel) const
{
    switch (sel) {
      case WatchSel::HOT:
        return WatchSpec::scalar("HOT", hotAddr, 8);
      case WatchSel::WARM1:
        return WatchSpec::scalar("WARM1", warm1Addr, 8);
      case WatchSel::WARM2:
        return WatchSpec::scalar("WARM2", warm2Addr, 8);
      case WatchSel::COLD:
        return WatchSpec::scalar("COLD", coldAddr, 8);
      case WatchSel::INDIRECT:
        return WatchSpec::indirect("INDIRECT", ptrAddr, 8);
      case WatchSel::RANGE:
        return WatchSpec::range("RANGE", rangeBase, rangeLen);
    }
    fatal("bad watch selector");
}

std::vector<WatchSpec>
Workload::multiWatch(unsigned n) const
{
    std::vector<WatchSpec> out;
    std::vector<Addr> pool = {hotAddr, warm1Addr, warm2Addr, coldAddr};
    pool.insert(pool.end(), multiAddrs.begin(), multiAddrs.end());
    DISE_ASSERT(n <= pool.size(), "workload '", name, "' provides only ",
                pool.size(), " multi-watch scalars");
    for (unsigned i = 0; i < n; ++i)
        out.push_back(WatchSpec::scalar(
            std::string("W").append(std::to_string(i)), pool[i], 8));
    return out;
}

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "bzip2", "crafty", "gcc", "mcf", "twolf", "vortex",
    };
    return names;
}

Workload
buildWorkload(const std::string &name, const WorkloadParams &params)
{
    if (name == "bzip2")
        return buildBzip2(params);
    if (name == "crafty")
        return buildCrafty(params);
    if (name == "gcc")
        return buildGcc(params);
    if (name == "mcf")
        return buildMcf(params);
    if (name == "twolf")
        return buildTwolf(params);
    if (name == "vortex")
        return buildVortex(params);
    fatal("unknown workload '", name, "'");
}

Program
buildHeisenbugDemo()
{
    using namespace reg;
    Assembler a;
    a.data(layout::DataBase);
    a.label("table"); // 32 quads, legitimately written
    a.space(32 * 8);
    a.label("directory"); // 8 quads of precious metadata right after
    a.quad(0xd1);
    a.quad(0xd2);
    a.quad(0xd3);
    a.quad(0xd4);
    a.space(32);

    a.text(layout::TextBase);
    a.label("main");
    a.la(s0, "table");
    a.lda(t9, 0, zero);
    a.li(t11, 77);
    a.label("loop");
    a.stmt(1);
    // idx = lcg() % 33  -- the bug: 33, not 32.
    a.li(t2, 1103515245);
    a.mulq(t11, t2, t11);
    a.addq(t11, 57, t11);
    a.srl(t11, 16, t0);
    a.and_(t0, 255, t0);
    a.li(t1, 33);
    a.label("mod");
    a.cmplt(t0, t1, t2);
    a.bne(t2, "modok");
    a.subq(t0, t1, t0);
    a.br("mod");
    a.label("modok");
    a.sll(t0, 3, t0);
    a.addq(s0, t0, t0);
    a.label("the_store");
    a.stq(t11, 0, t0); // idx == 32 writes directory[0]!
    a.stmt(2);
    a.addq(t9, 1, t9);
    a.li(t1, 400);
    a.cmplt(t9, t1, t2);
    a.bne(t2, "loop");
    a.syscall(SysExit);
    return a.finish("main");
}

Program
buildToolDemo()
{
    using namespace reg;
    Assembler a;
    a.data(layout::DataBase);
    // The "heap": three 32-byte blocks at +0, +96 and +192 — spaced
    // so one block's redzone (32B either side) never overlaps another
    // block's data — plus untouched tail used for the invalid free.
    a.label("heap");
    a.space(1024);
    a.label("scratch"); // the memtrace hammer target
    a.quad(0);
    a.space(56);

    a.text(layout::TextBase);
    a.label("main");
    a.la(s0, "heap");

    // alloc A = heap+0 (freed cleanly, but stored past its end first).
    a.stmt(1);
    a.mov(s0, a0);
    a.li(a1, 32);
    a.syscall(SysAllocHint);
    a.mov(a0, s1);
    // alloc B = heap+96 (freed, then read: use-after-free).
    a.lda(a0, 96, s0);
    a.li(a1, 32);
    a.syscall(SysAllocHint);
    a.mov(a0, s2);
    // alloc C = heap+192 (never freed: the leak).
    a.lda(a0, 192, s0);
    a.li(a1, 32);
    a.syscall(SysAllocHint);
    a.mov(a0, s3);

    // Legitimate fill of A — in-bounds stores are clean.
    a.stmt(2);
    a.mov(s1, t0);
    a.li(t1, 4);
    a.label("fill");
    a.stq(t9, 0, t0);
    a.addq(t0, 8, t0);
    a.subq(t1, 1, t1);
    a.bne(t1, "fill");

    // Bug 1: store one quad past A's end, into the trailing redzone.
    // Early in the run on purpose — the hibernate test persists
    // mid-run with this finding already on the books.
    a.stmt(3);
    a.label("oob_store");
    a.stq(t9, 32, s1);

    // Same-address hammer: 64 read-modify-writes of one granule, the
    // redundancy memtrace's suppression table elides.
    a.stmt(4);
    a.la(t2, "scratch");
    a.li(t1, 64);
    a.label("hammer");
    a.ldq(t3, 0, t2);
    a.addq(t3, 1, t3);
    a.stq(t3, 0, t2);
    a.subq(t1, 1, t1);
    a.bne(t1, "hammer");

    // Bug 2: free B, then load from it.
    a.stmt(5);
    a.mov(s2, a0);
    a.syscall(SysFreeHint);
    a.label("uaf_load");
    a.ldq(t4, 0, s2);

    // Bug 3: free an address that was never allocated.
    a.stmt(6);
    a.lda(a0, 800, s0);
    a.syscall(SysFreeHint);

    // A is released properly (so exactly one block leaks: C).
    a.mov(s1, a0);
    a.syscall(SysFreeHint);

    // Bug 4: print C's address — an address value reaching an output
    // sink (addrleak). The second put is a benign untainted value.
    a.stmt(7);
    a.mov(s3, a0);
    a.syscall(SysPutInt);
    a.li(a0, 42);
    a.syscall(SysPutInt);

    a.syscall(SysExit); // leakcheck's end-of-run report fires here
    return a.finish("main");
}

} // namespace dise
