# Configure, build and run a set of tests under a sanitizer.
# Driven by the `sanitize_core_tests` ctest entry:
#   cmake -DVMMC_SRC=<src> -DVMMC_BIN=<bin> [-DVMMC_SAN=<list>]
#         [-DVMMC_TESTS=<list>] -P sanitize_check.cmake
# Defaults cover the tests that exercise the event-node pool, InlineFn
# storage, the placed-event queue, the intrusive write-watch list, the
# Buffer ref-count/pool code and the simulated memory (one mapping per
# node, the run page table) most heavily under ASan + UBSan, plus the unit
# tests of the components that hold registry counters by reference:
# vmmc_unit_test (software TLB, page tables, wire format) and myrinet_test
# (links, switches, fabric, CRC). None of them boots a VMMC cluster, whose
# teardown leaks suspended coroutine frames; lanai_test stays out for that
# reason (NicTest.EchoLcpRoundTrip leaves its LCP frame parked).

if(NOT VMMC_SRC OR NOT VMMC_BIN)
  message(FATAL_ERROR "usage: cmake -DVMMC_SRC=<src> -DVMMC_BIN=<bin> -P sanitize_check.cmake")
endif()

if(NOT VMMC_SAN)
  set(VMMC_SAN "address,undefined")
endif()
if(NOT VMMC_TESTS)
  set(VMMC_TESTS sim_test sim_determinism_test spin_wait_test task_test
      topology_test buffer_test mem_test vmmc_unit_test myrinet_test)
endif()

set(_tests ${VMMC_TESTS})

execute_process(
  COMMAND ${CMAKE_COMMAND} -S ${VMMC_SRC} -B ${VMMC_BIN}
          -DCMAKE_BUILD_TYPE=RelWithDebInfo
          "-DVMMC_SANITIZE=${VMMC_SAN}"
  RESULT_VARIABLE _rc)
if(NOT _rc EQUAL 0)
  message(FATAL_ERROR "sanitized configure failed")
endif()

execute_process(
  COMMAND ${CMAKE_COMMAND} --build ${VMMC_BIN} --parallel --target ${_tests}
  RESULT_VARIABLE _rc)
if(NOT _rc EQUAL 0)
  message(FATAL_ERROR "sanitized build failed")
endif()

foreach(_t IN LISTS _tests)
  message(STATUS "running ${_t} under -fsanitize=${VMMC_SAN}")
  execute_process(
    COMMAND ${VMMC_BIN}/tests/${_t}
    RESULT_VARIABLE _rc)
  if(NOT _rc EQUAL 0)
    message(FATAL_ERROR "${_t} failed under sanitizers")
  endif()
endforeach()
