# Warning promotion, sanitizers, and static-analysis hooks for rdsim targets.
#
# First-party libraries opt in via rdsim_harden(<target>): they build with the
# widened warning set promoted to errors (RDSIM_WERROR) and, when
# RDSIM_CLANG_TIDY is ON and a clang-tidy binary exists, run the .clang-tidy
# profile as part of compilation. Sanitizers (RDSIM_SANITIZE) apply globally
# so test binaries and gtest itself are instrumented consistently.

option(RDSIM_WERROR "Treat warnings as errors on first-party rdsim targets" ON)
option(RDSIM_CLANG_TIDY "Run clang-tidy on first-party targets when available" OFF)
set(RDSIM_SANITIZE "" CACHE STRING
    "Sanitizer set: '' | address (ASan+UBSan) | thread (TSan)")
set_property(CACHE RDSIM_SANITIZE PROPERTY STRINGS "" "address" "thread")
option(RDSIM_STDLIB_ASSERTIONS
       "Enable libstdc++ container/iterator assertions (-D_GLIBCXX_ASSERTIONS)" OFF)
option(RDSIM_THREAD_SAFETY
       "Enable clang -Wthread-safety analysis (errors) on first-party targets" OFF)

set(RDSIM_WARNING_FLAGS
    -Wall -Wextra -Wconversion -Wshadow -Wdouble-promotion)

# Clang thread-safety analysis: proves every RDSIM_GUARDED_BY member access
# holds its util::Mutex (src/util/thread_annotations.hpp). The annotations
# compile to nothing elsewhere, so this is a clang-only preset; asking for it
# under another compiler degrades to a warning rather than silently passing.
if(RDSIM_THREAD_SAFETY)
  if(CMAKE_CXX_COMPILER_ID MATCHES "Clang")
    list(APPEND RDSIM_WARNING_FLAGS -Wthread-safety -Werror=thread-safety)
  else()
    message(WARNING "RDSIM_THREAD_SAFETY is ON but the compiler is "
                    "${CMAKE_CXX_COMPILER_ID}; -Wthread-safety needs clang, "
                    "annotations compile as no-ops in this build")
  endif()
endif()

# Bit-exact results on every target. GCC defaults to -ffp-contract=fast,
# which fuses a * b + c into one FMA wherever the target has FMA
# (-march=x86-64-v3, aarch64) and rounds once instead of twice, so the pinned
# golden hashes would hold only for baseline x86-64 code. Global, because the
# oracles in tests/ compare their reference copies bit for bit against src/.
add_compile_options(-ffp-contract=off)

if(RDSIM_SANITIZE STREQUAL "address")
  add_compile_options(-fsanitize=address,undefined -fno-omit-frame-pointer
                      -fno-sanitize-recover=all)
  add_link_options(-fsanitize=address,undefined)
elseif(RDSIM_SANITIZE STREQUAL "thread")
  add_compile_options(-fsanitize=thread -fno-omit-frame-pointer)
  add_link_options(-fsanitize=thread)
elseif(NOT RDSIM_SANITIZE STREQUAL "")
  message(FATAL_ERROR "RDSIM_SANITIZE must be '', 'address', or 'thread' "
                      "(got '${RDSIM_SANITIZE}')")
endif()

# Sanitizer builds get the libstdc++ assertions too: they are exactly the
# class of checks (bounds, iterator validity) those builds exist to run.
if(RDSIM_STDLIB_ASSERTIONS OR NOT RDSIM_SANITIZE STREQUAL "")
  add_compile_definitions(_GLIBCXX_ASSERTIONS)
endif()

if(RDSIM_CLANG_TIDY)
  find_program(RDSIM_CLANG_TIDY_EXE NAMES clang-tidy)
  if(NOT RDSIM_CLANG_TIDY_EXE)
    message(WARNING "RDSIM_CLANG_TIDY is ON but no clang-tidy binary was found")
  endif()
endif()

function(rdsim_harden target)
  target_compile_options(${target} PRIVATE ${RDSIM_WARNING_FLAGS})
  if(RDSIM_WERROR)
    target_compile_options(${target} PRIVATE -Werror)
  endif()
  if(RDSIM_CLANG_TIDY AND RDSIM_CLANG_TIDY_EXE)
    set_target_properties(${target} PROPERTIES
      CXX_CLANG_TIDY "${RDSIM_CLANG_TIDY_EXE}")
  endif()
endfunction()
