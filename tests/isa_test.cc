/**
 * @file
 * ISA tests: opcode metadata consistency, encode/decode round-trips
 * (including a randomized property sweep), source/destination register
 * extraction, and the disassembler.
 */

#include <gtest/gtest.h>

#include "common/random.hh"
#include "isa/disasm.hh"
#include "isa/encoding.hh"
#include "isa/inst.hh"

namespace dise {
namespace {

TEST(Opcodes, MetadataConsistent)
{
    for (unsigned i = 0; i < NumOpcodes; ++i) {
        Opcode op = static_cast<Opcode>(i);
        const OpInfo &info = opInfo(op);
        EXPECT_NE(info.name, nullptr);
        if (info.cls == OpClass::Load || info.cls == OpClass::Store) {
            if (op != Opcode::LDA && op != Opcode::LDAH) {
                EXPECT_GT(info.memBytes, 0u) << info.name;
            }
        } else {
            EXPECT_EQ(info.memBytes, 0u) << info.name;
        }
    }
}

TEST(Opcodes, ClassPredicates)
{
    EXPECT_TRUE(isLoad(Opcode::LDQ));
    EXPECT_FALSE(isLoad(Opcode::LDA)); // address computation, not load
    EXPECT_TRUE(isStore(Opcode::STB));
    EXPECT_TRUE(isCondBranch(Opcode::BEQ));
    EXPECT_FALSE(isCondBranch(Opcode::BR));
    EXPECT_TRUE(isControl(Opcode::JSR));
    EXPECT_FALSE(isControl(Opcode::ADDQ));
}

TEST(Registers, FlatIndexing)
{
    EXPECT_EQ(ir(0).flat(), 0u);
    EXPECT_EQ(ir(31).flat(), 31u);
    EXPECT_EQ(dr(0).flat(), 32u);
    EXPECT_EQ(dr(7).flat(), 39u);
    EXPECT_TRUE(reg::zero.isZero());
    EXPECT_FALSE(reg::sp.isZero());
    EXPECT_FALSE(dr(7).isZero());
}

TEST(Registers, Names)
{
    EXPECT_EQ(regName(reg::sp), "sp");
    EXPECT_EQ(regName(reg::zero), "zero");
    EXPECT_EQ(regName(ir(5)), "r5");
    EXPECT_EQ(regName(dr(3)), "dr3");
    EXPECT_EQ(regName(RegId{}), "-");
}

TEST(Encoding, RoundTripOperate)
{
    Inst inst = makeOp(Opcode::ADDQ, reg::t0, reg::t1, reg::t2);
    auto dec = decode(encode(inst));
    ASSERT_TRUE(dec.has_value());
    EXPECT_EQ(*dec, inst);
}

TEST(Encoding, RoundTripMemoryNegativeDisp)
{
    Inst inst = makeMem(Opcode::STQ, reg::t3, -8192, reg::sp);
    auto dec = decode(encode(inst));
    ASSERT_TRUE(dec.has_value());
    EXPECT_EQ(*dec, inst);
}

TEST(Encoding, RoundTripBranch)
{
    Inst inst = makeBranch(Opcode::BNE, reg::t4, -100);
    auto dec = decode(encode(inst));
    ASSERT_TRUE(dec.has_value());
    EXPECT_EQ(*dec, inst);
}

TEST(Encoding, RoundTripDiseMove)
{
    Inst inst = makeDiseMove(Opcode::D_MFR, reg::t0, dr(5));
    auto dec = decode(encode(inst));
    ASSERT_TRUE(dec.has_value());
    EXPECT_EQ(*dec, inst);
}

TEST(Encoding, DiseOnlyOpcodesNotEncodable)
{
    EXPECT_FALSE(encodable(makeDiseBranch(Opcode::D_BNE, dr(1), 1)));
    EXPECT_FALSE(encodable(makeDiseCall(dr(2), dr(5))));
    // But d_ret is ordinary handler code.
    EXPECT_TRUE(encodable(makeNullary(Opcode::D_RET)));
}

TEST(Encoding, DiseRegisterOperandsNotEncodable)
{
    Inst inst = makeOp(Opcode::ADDQ, dr(1), reg::t0, reg::t1);
    EXPECT_FALSE(encodable(inst));
}

TEST(Encoding, OutOfRangeFields)
{
    Inst inst = makeMem(Opcode::LDQ, reg::t0, 8192, reg::sp);
    EXPECT_FALSE(encodable(inst)); // disp14 max is 8191
    Inst b = makeBranch(Opcode::BR, reg::zero, 1 << 20);
    EXPECT_FALSE(encodable(b));
}

TEST(Encoding, GarbageWordsDecodeToNullopt)
{
    EXPECT_FALSE(decode(0xffffffff).has_value());
    // An opcode byte beyond the table.
    EXPECT_FALSE(decode(0xf0000000).has_value());
}

/** Property: random encodable instructions round-trip exactly. */
TEST(Encoding, PropertyRandomRoundTrip)
{
    Rng rng(1234);
    int tested = 0;
    for (int iter = 0; iter < 5000; ++iter) {
        Inst inst;
        inst.op = static_cast<Opcode>(rng.below(NumOpcodes));
        const OpInfo &info = inst.info();
        if (!info.encodable)
            continue;
        switch (info.fmt) {
          case Format::Operate:
            inst = makeOp(inst.op, ir(rng.below(32)), ir(rng.below(32)),
                          ir(rng.below(32)));
            break;
          case Format::OperateImm:
            inst = makeOpImm(inst.op, ir(rng.below(32)),
                             static_cast<uint8_t>(rng.below(256)),
                             ir(rng.below(32)));
            break;
          case Format::Memory:
            inst = makeMem(inst.op, ir(rng.below(32)),
                           static_cast<int64_t>(rng.below(16384)) - 8192,
                           ir(rng.below(32)));
            break;
          case Format::Branch:
            inst = makeBranch(inst.op, ir(rng.below(32)),
                              static_cast<int64_t>(rng.below(1 << 19)) -
                                  (1 << 18));
            break;
          case Format::Jump:
            inst = makeJump(inst.op, ir(rng.below(32)),
                            ir(rng.below(32)));
            break;
          case Format::System:
            inst = makeSystem(inst.op,
                              static_cast<int64_t>(rng.below(1 << 24)));
            break;
          case Format::Ctrap:
            inst = makeCtrap(ir(rng.below(32)),
                             static_cast<int64_t>(rng.below(1 << 19)));
            break;
          case Format::DiseMove:
            inst = makeDiseMove(inst.op, ir(rng.below(32)),
                                dr(rng.below(8)));
            break;
          case Format::Nullary:
            inst = makeNullary(inst.op);
            break;
          default:
            continue;
        }
        auto dec = decode(encode(inst));
        ASSERT_TRUE(dec.has_value()) << disasm(inst);
        EXPECT_EQ(*dec, inst) << disasm(inst);
        ++tested;
    }
    EXPECT_GT(tested, 3000);
}

TEST(SrcDst, StoreReadsBothRegs)
{
    Inst st = makeMem(Opcode::STQ, reg::t0, 8, reg::t1);
    SrcRegs s = srcRegs(st);
    EXPECT_EQ(s.r[0], reg::t0);
    EXPECT_EQ(s.r[1], reg::t1);
    EXPECT_FALSE(dstReg(st).valid());
}

TEST(SrcDst, LoadWritesRa)
{
    Inst ld = makeMem(Opcode::LDQ, reg::t0, 8, reg::t1);
    SrcRegs s = srcRegs(ld);
    EXPECT_EQ(s.r[0], reg::t1);
    EXPECT_FALSE(s.r[1].valid());
    EXPECT_EQ(dstReg(ld), reg::t0);
}

TEST(SrcDst, BsrLinks)
{
    Inst bsr = makeBranch(Opcode::BSR, reg::ra, 10);
    EXPECT_EQ(dstReg(bsr), reg::ra);
    Inst br = makeBranch(Opcode::BR, reg::zero, 10);
    EXPECT_FALSE(dstReg(br).valid());
}

TEST(SrcDst, DiseMoveDirections)
{
    Inst mfr = makeDiseMove(Opcode::D_MFR, reg::t0, dr(4));
    EXPECT_EQ(dstReg(mfr), reg::t0);
    EXPECT_EQ(srcRegs(mfr).r[0], dr(4));
    Inst mtr = makeDiseMove(Opcode::D_MTR, reg::t0, dr(4));
    EXPECT_EQ(dstReg(mtr), dr(4));
    EXPECT_EQ(srcRegs(mtr).r[0], reg::t0);
}

TEST(SrcDst, DiseCcallReadsCondAndTarget)
{
    Inst c = makeDiseCall(dr(2), dr(5));
    EXPECT_EQ(c.op, Opcode::D_CCALL);
    SrcRegs s = srcRegs(c);
    EXPECT_EQ(s.r[0], dr(5));
    EXPECT_EQ(s.r[1], dr(2));
}

TEST(Disasm, PaperSyntax)
{
    // The paper's example: addq sp, 8, dr0.
    Inst inst = makeOp(Opcode::ADDQ, reg::sp, ir(8), dr(0));
    EXPECT_EQ(disasm(inst), "addq sp, r8, dr0");
    Inst mem = makeMem(Opcode::LDQ, ir(4), 32, reg::sp);
    EXPECT_EQ(disasm(mem), "ldq r4, 32(sp)");
}

TEST(Disasm, BranchWithPc)
{
    Inst b = makeBranch(Opcode::BEQ, reg::t0, 2);
    std::string s = disasm(b, 0x1000);
    EXPECT_NE(s.find("0x100c"), std::string::npos) << s;
}

} // namespace
} // namespace dise
