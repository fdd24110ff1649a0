/**
 * @file
 * A scratch store directory that removes itself.
 *
 * Tests, smoke tools and benches give every session store they open a
 * ScratchDir: `<prefix>_<pid>`, emptied of anything an earlier run
 * left under that name and created. The destructor deletes the files
 * in it and then the directory, also when a failed assertion returns
 * early or an exception unwinds, so no run leaves a store behind. A
 * store is a flat directory, so one level of files is all there is.
 */

#ifndef DISE_PERSIST_SCRATCH_DIR_HH
#define DISE_PERSIST_SCRATCH_DIR_HH

#include <unistd.h>

#include <string>
#include <vector>

#include "persist/vfs.hh"

namespace dise::persist {

class ScratchDir
{
  public:
    explicit ScratchDir(const std::string &prefix)
        : path(prefix + "_" + std::to_string(static_cast<long>(::getpid())))
    {
        clear();
        vfs_.mkdirs(path, nullptr);
    }

    ~ScratchDir()
    {
        clear();
        ::rmdir(path.c_str());
    }

    ScratchDir(const ScratchDir &) = delete;
    ScratchDir &operator=(const ScratchDir &) = delete;

    const std::string path;

  private:
    void
    clear()
    {
        std::vector<std::string> names;
        if (vfs_.list(path, names))
            for (const std::string &n : names)
                vfs_.remove(path + "/" + n);
    }

    RealVfs vfs_;
};

} // namespace dise::persist

#endif // DISE_PERSIST_SCRATCH_DIR_HH
