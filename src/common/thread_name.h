// Names the calling thread, so per-thread views (top -H, /proc/<pid>/task,
// scripts/profile_setup.py's CPU table) tell a server's threads apart.

#ifndef TIERBASE_COMMON_THREAD_NAME_H_
#define TIERBASE_COMMON_THREAD_NAME_H_

#include <pthread.h>

#include <string>

namespace tierbase {

/// Sets the calling thread's name. Linux keeps the first 15 bytes.
inline void SetCurrentThreadName(const std::string& name) {
  pthread_setname_np(pthread_self(), name.substr(0, 15).c_str());
}

}  // namespace tierbase

#endif  // TIERBASE_COMMON_THREAD_NAME_H_
