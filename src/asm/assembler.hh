/**
 * @file
 * Programmatic assembler for the Alpha-like ISA.
 *
 * Workloads, tests, and the debugger's code generators build programs
 * through this API. Mnemonic methods mirror the paper's assembly
 * syntax: the destination is the right-most operand
 * ("addq sp, 8, dr0" is a.addq(sp, 8, dr0)).
 */

#ifndef DISE_ASM_ASSEMBLER_HH
#define DISE_ASM_ASSEMBLER_HH

#include <cstdint>
#include <string>

#include "asm/program.hh"

namespace dise {

/** Builds an AsmUnit and assembles it into a Program. */
class Assembler
{
  public:
    Assembler();

    /** @name Section control */
    ///@{
    void text(Addr base);
    void data(Addr base);
    ///@}

    /** @name Labels and line info */
    ///@{
    void label(const std::string &name);
    /** Mark a source-statement boundary at the current text position. */
    void stmt(int line = 0);
    /** Unique generated label with the given prefix. */
    std::string genLabel(const std::string &prefix = "L");
    ///@}

    /** @name Data directives */
    ///@{
    void quad(uint64_t v);
    void long_(uint32_t v);
    void word(uint16_t v);
    void byte(uint8_t v);
    void space(uint64_t n);
    void align(uint64_t boundary);
    /** Emit a pre-built byte blob (e.g. a generated input data set). */
    void blob(std::vector<uint8_t> bytes);
    /** Emit the 8-byte address of @p lbl (e.g. jump tables). */
    void quadLabel(const std::string &lbl);
    ///@}

    /** Emit a raw instruction (must be encodable). */
    void emit(const Inst &inst);
    /** Emit an instruction whose branch target is a label. */
    void emitBranch(const Inst &inst, const std::string &target);

    /** @name ALU (register and 8-bit-literal forms) */
    ///@{
    void addq(RegId a, RegId b, RegId c);
    void addq(RegId a, uint8_t imm, RegId c);
    void subq(RegId a, RegId b, RegId c);
    void subq(RegId a, uint8_t imm, RegId c);
    void mulq(RegId a, RegId b, RegId c);
    void mulq(RegId a, uint8_t imm, RegId c);
    void and_(RegId a, RegId b, RegId c);
    void and_(RegId a, uint8_t imm, RegId c);
    void bis(RegId a, RegId b, RegId c);
    void bis(RegId a, uint8_t imm, RegId c);
    void xor_(RegId a, RegId b, RegId c);
    void xor_(RegId a, uint8_t imm, RegId c);
    void bic(RegId a, RegId b, RegId c);
    void bic(RegId a, uint8_t imm, RegId c);
    void sll(RegId a, RegId b, RegId c);
    void sll(RegId a, uint8_t imm, RegId c);
    void srl(RegId a, RegId b, RegId c);
    void srl(RegId a, uint8_t imm, RegId c);
    void sra(RegId a, RegId b, RegId c);
    void sra(RegId a, uint8_t imm, RegId c);
    void cmpeq(RegId a, RegId b, RegId c);
    void cmpeq(RegId a, uint8_t imm, RegId c);
    void cmplt(RegId a, RegId b, RegId c);
    void cmplt(RegId a, uint8_t imm, RegId c);
    void cmple(RegId a, RegId b, RegId c);
    void cmple(RegId a, uint8_t imm, RegId c);
    void cmpult(RegId a, RegId b, RegId c);
    void cmpult(RegId a, uint8_t imm, RegId c);
    void cmpule(RegId a, RegId b, RegId c);
    void cmpule(RegId a, uint8_t imm, RegId c);
    void mov(RegId src, RegId dst);
    ///@}

    /** @name Memory */
    ///@{
    void ldq(RegId ra, int64_t disp, RegId rb);
    void ldl(RegId ra, int64_t disp, RegId rb);
    void ldw(RegId ra, int64_t disp, RegId rb);
    void ldb(RegId ra, int64_t disp, RegId rb);
    void stq(RegId ra, int64_t disp, RegId rb);
    void stl(RegId ra, int64_t disp, RegId rb);
    void stw(RegId ra, int64_t disp, RegId rb);
    void stb(RegId ra, int64_t disp, RegId rb);
    void lda(RegId ra, int64_t disp, RegId rb);
    void ldah(RegId ra, int64_t disp, RegId rb);
    ///@}

    /** @name Control */
    ///@{
    void beq(RegId ra, const std::string &target);
    void bne(RegId ra, const std::string &target);
    void blt(RegId ra, const std::string &target);
    void ble(RegId ra, const std::string &target);
    void bgt(RegId ra, const std::string &target);
    void bge(RegId ra, const std::string &target);
    void br(const std::string &target);
    void bsr(RegId link, const std::string &target);
    void jmp(RegId rb);
    void jsr(RegId link, RegId rb);
    void ret(RegId rb);
    ///@}

    /** @name System */
    ///@{
    void syscall(int64_t code);
    void trap(int64_t code = 0);
    void ctrap(RegId cond, int64_t code = 0);
    void halt();
    void nop();
    void codeword(int64_t id);
    void d_ret();
    void d_mfr(RegId rd, RegId diseSrc);
    void d_mtr(RegId diseDst, RegId rs);
    ///@}

    /** @name Pseudo-instructions */
    ///@{
    /** Load an arbitrary 64-bit constant (expands as needed). */
    void li(RegId rd, uint64_t value);
    /** Load the address of a label (ldah+lda pair, re-patchable). */
    void la(RegId rd, const std::string &lbl);
    ///@}

    /** Number of text items emitted so far (for test introspection). */
    size_t textItems() const { return unit_.text.items.size(); }

    /** Assemble into a loadable Program; the Program takes the unit
     *  as its source, so the assembler is empty afterwards. */
    Program finish(const std::string &entryLabel);

    /** Assemble a pre-built IR unit (used by the binary rewriter); the
     *  Program keeps it as its source. */
    static Program assemble(AsmUnit unit);

  private:
    AsmSection &cur();
    void pushItem(AsmItem item);

    AsmUnit unit_;
    bool inText_ = true;
    uint64_t nextLabel_ = 0;
};

} // namespace dise

#endif // DISE_ASM_ASSEMBLER_HH
