/**
 * @file
 * A point-in-time capture of a debugged target: the architectural
 * register state, the backend's host-side debugger state, and a
 * copy-on-write undo interval holding the pre-images of every 64-byte
 * memory block dirtied AFTER the checkpoint was taken. Restoring
 * checkpoint k from a later position applies the open undo interval
 * and then each intermediate checkpoint's interval, newest first —
 * cost proportional to blocks actually dirtied since k, never to total
 * memory size.
 */

#ifndef DISE_REPLAY_CHECKPOINT_HH
#define DISE_REPLAY_CHECKPOINT_HH

#include "cpu/arch_state.hh"
#include "debug/backend.hh"
#include "mem/mainmem.hh"

namespace dise {

class DebugTarget;

struct Checkpoint
{
    /** Stream position: micro-ops executed when the capture was made. */
    uint64_t time = 0;
    /** Application instructions retired when the capture was made. */
    uint64_t appInsts = 0;

    ArchState arch;
    BackendSnapshot host;

    /** Simulated-OS output lengths (rolled back on restore so replay
     *  does not duplicate syscall output). */
    size_t sinkText = 0;
    size_t sinkMarks = 0;

    /**
     * Pre-images of blocks dirtied between this checkpoint and the
     * next one (sealed when the next checkpoint is taken). Empty for
     * the most recent checkpoint, whose interval is still open inside
     * MainMemory.
     */
    UndoLog undo;
};

/**
 * Digest of everything user-visible about a debug session: registers,
 * memory image, recorded events, and simulated-OS output. Two
 * deterministic runs (or a run and its replay) must digest equal.
 */
uint64_t stateDigest(const DebugTarget &target, const DebugBackend &backend);

} // namespace dise

#endif // DISE_REPLAY_CHECKPOINT_HH
