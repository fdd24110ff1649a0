/**
 * @file
 * Loadable program images and the assembler IR they are built from.
 *
 * A Program retains its assembly-level intermediate representation
 * (AsmUnit) so that the static-binary-rewriting debugger backend can
 * insert instrumentation and re-assemble — the "wholesale
 * re-compilation" style of Wahbe et al. that the paper compares
 * against. The statement table drives the single-stepping backend, the
 * symbol table drives watchpoint address resolution.
 */

#ifndef DISE_ASM_PROGRAM_HH
#define DISE_ASM_PROGRAM_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "isa/inst.hh"

namespace dise {

/** One item of assembler IR. */
struct AsmItem
{
    enum class Kind : uint8_t {
        Inst,      ///< one instruction; target may hold a label
        La,        ///< load label address into reg (expands to ldah+lda)
        QuadLabel, ///< 8 data bytes holding a label's address
        Label,     ///< define a label here
        Stmt,      ///< source statement boundary (line table entry)
        Bytes,     ///< literal data bytes
        Space,     ///< zero-filled gap
        Align,     ///< align to power-of-two boundary
    };

    Kind kind;
    Inst inst{};               ///< Kind::Inst
    RegId reg{};               ///< Kind::La destination
    std::string label;         ///< target/defined label name
    std::vector<uint8_t> bytes; ///< Kind::Bytes payload
    uint64_t size = 0;         ///< Kind::Space length / Kind::Align amount
    int line = 0;              ///< Kind::Stmt source line number
};

/** A stream of IR items plus its base address. */
struct AsmSection
{
    std::string name;
    Addr base = 0;
    std::vector<AsmItem> items;
};

/** Full assembler IR for a compilation unit. */
struct AsmUnit
{
    AsmSection text;
    AsmSection data;
    std::string entryLabel;
};

/**
 * The immutable bytes of one segment, shared by every Program copy
 * that holds them: copying a Program copies its metadata only. Code
 * that writes segment bytes builds its own vector and hands it over
 * whole; a patch replaces the segment's bytes with a patched copy.
 */
class SegmentBytes
{
  public:
    SegmentBytes() = default;
    SegmentBytes(std::vector<uint8_t> bytes)
        : bytes_(std::make_shared<const std::vector<uint8_t>>(
              std::move(bytes)))
    {
    }

    const uint8_t *data() const { return bytes_ ? bytes_->data() : nullptr; }
    size_t size() const { return bytes_ ? bytes_->size() : 0; }
    bool empty() const { return size() == 0; }
    uint8_t operator[](size_t i) const { return (*bytes_)[i]; }

    /** A private, writable copy of the bytes. */
    std::vector<uint8_t>
    copy() const
    {
        return bytes_ ? *bytes_ : std::vector<uint8_t>{};
    }

  private:
    std::shared_ptr<const std::vector<uint8_t>> bytes_;
};

/** A loadable memory image. */
struct Program
{
    struct Segment
    {
        std::string name;
        Addr base = 0;
        SegmentBytes bytes;
        bool executable = false;
    };

    std::vector<Segment> segments;
    Addr entry = 0;

    /** label -> address */
    std::map<std::string, Addr> symbols;

    /** Sorted PCs of source-statement boundaries (the "line table"). */
    std::vector<Addr> stmtBoundaries;

    /** PC -> source line, for debugger display. */
    std::map<Addr, int> lineTable;

    /** The IR this image was assembled from (for the binary rewriter). */
    std::shared_ptr<const AsmUnit> source;

    /** Look up a symbol; fatal() if missing. */
    Addr symbol(const std::string &name) const;

    /** True if some segment contains @p addr. */
    bool contains(Addr addr) const;

    /** End address (base+size) of the text segment. */
    Addr textEnd() const;

    /** Total instruction words in executable segments. */
    uint64_t textWords() const;
};

} // namespace dise

#endif // DISE_ASM_PROGRAM_HH
