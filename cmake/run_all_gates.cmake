# Runs every static-analysis and sanitizer gate in sequence, exiting nonzero
# on the first finding. This is the extended verify recipe:
#
#   cmake -DSOURCE_DIR=/root/repo -P cmake/run_all_gates.cmake
#
# Gates, in order (cheapest first so failures surface fast):
#   1. garl_lint        — repo-invariant linter (tools/garl_lint)
#   2. -Werror build    — full tree with GARL_WERROR=ON (clean -Wall -Wextra)
#   3. clang-tidy       — .clang-tidy set over compile_commands.json
#                         (loud skip when clang-tidy is not installed)
#   4. ASan/UBSan       — full test suite under address+undefined
#   5. TSan             — concurrency tests under thread sanitizer
#
# GATES_DIR holds the sub-builds (default <source>/build-gates; .gitignore'd).

if(NOT SOURCE_DIR)
  get_filename_component(SOURCE_DIR ${CMAKE_CURRENT_LIST_DIR} DIRECTORY)
endif()
if(NOT GATES_DIR)
  set(GATES_DIR ${SOURCE_DIR}/build-gates)
endif()

function(garl_run_step description)
  message(STATUS "=== gate: ${description} ===")
  execute_process(COMMAND ${ARGN} RESULT_VARIABLE step_result)
  if(NOT step_result EQUAL 0)
    message(FATAL_ERROR "gate FAILED: ${description}")
  endif()
endfunction()

# --- 1+2: -Werror build of the whole tree, then the garl_lint ctest. --------
garl_run_step("configure -Werror tree"
  ${CMAKE_COMMAND} -S ${SOURCE_DIR} -B ${GATES_DIR}/lint
  -DCMAKE_BUILD_TYPE=Release -DGARL_WERROR=ON)
garl_run_step("build with -Wall -Wextra -Werror"
  ${CMAKE_COMMAND} --build ${GATES_DIR}/lint -j)
# One lint pass over the whole tree against the checked-in (empty) baseline.
# A finding, a stale baseline entry or a malformed table fails the gate.
garl_run_step("garl_lint invariants"
  ${GATES_DIR}/lint/tools/garl_lint/garl_lint
  --root ${SOURCE_DIR} --format=json
  --baseline ${SOURCE_DIR}/tools/garl_lint/garl_lint.baseline)

# --- 2b: observability golden-run + schema tests (fast, catch det drift). ---
garl_run_step("observability test suite"
  ${CMAKE_CTEST_COMMAND} --test-dir ${GATES_DIR}/lint --output-on-failure
  -R "HistogramTest|MetricsRegistryTest|TraceTest|RunLogRecordTest|TracecatTest|GoldenRunTest|ChaosTest|ServingChaosTest|StopNetworkCacheTest|FleetTest"
  -j4)

# --- 2c: kernel determinism under both GARL_SIMD settings. ------------------
# The runtime flag is read once per process, so running the suite twice with
# the env var flipped covers both kernel bodies; the golden-run matrix test
# additionally A/Bs in-process. Byte-identical det payloads are the contract.
foreach(simd_setting 0 1)
  set(ENV{GARL_SIMD} ${simd_setting})
  garl_run_step("kernel determinism (GARL_SIMD=${simd_setting})"
    ${CMAKE_CTEST_COMMAND} --test-dir ${GATES_DIR}/lint --output-on-failure
    -R "SimdKernelTest|ArenaPoolTest|ArenaScratchTest|ArenaSteadyStateTest|ArenaStatsTest|GoldenRunTest"
    -j4)
endforeach()
unset(ENV{GARL_SIMD})

# --- 3: clang-tidy over the same build's compile commands. ------------------
garl_run_step("clang-tidy (skips loudly if unavailable)"
  ${CMAKE_COMMAND} -DSOURCE_DIR=${SOURCE_DIR} -DBUILD_DIR=${GATES_DIR}/lint
  -P ${SOURCE_DIR}/cmake/run_clang_tidy.cmake)

# --- 4: ASan/UBSan full test suite. -----------------------------------------
# "address,undefined" (comma form) survives CMake-list argument passing; the
# top-level CMakeLists accepts either separator.
garl_run_step("configure asan-ubsan tree"
  ${CMAKE_COMMAND} -S ${SOURCE_DIR} -B ${GATES_DIR}/asan-ubsan
  -DCMAKE_BUILD_TYPE=RelWithDebInfo -DGARL_SANITIZE=address,undefined)
garl_run_step("build asan-ubsan tree"
  ${CMAKE_COMMAND} --build ${GATES_DIR}/asan-ubsan -j)
set(ENV{ASAN_OPTIONS} "halt_on_error=1:detect_leaks=1")
set(ENV{UBSAN_OPTIONS} "halt_on_error=1:print_stacktrace=1")
garl_run_step("ASan/UBSan test suite"
  ${CMAKE_CTEST_COMMAND} --test-dir ${GATES_DIR}/asan-ubsan
  --output-on-failure -j4)

# --- 5: TSan concurrency tests (reuses the tier-1 TSan recipe). -------------
garl_run_step("TSan concurrency tests"
  ${CMAKE_COMMAND} -DSOURCE_DIR=${SOURCE_DIR} -DBINARY_DIR=${GATES_DIR}/tsan
  -P ${SOURCE_DIR}/cmake/run_tsan_tests.cmake)

message(STATUS "=== all gates green ===")
