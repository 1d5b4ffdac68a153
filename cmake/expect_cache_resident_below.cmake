# CTest helper: run ${CMD} with ${ARGS} (a ;-list) plus "--json ${REPORT}",
# then require the report's solve_cache.bytes_resident to be at most
# ${LIMIT}. Pins the solve cache's residency on a workload whose keys
# dominate it, so a regression in the key encoding or in how often each
# key is stored fails tier-1 instead of surfacing as peak RSS.
#
#   cmake -DCMD=<exe> "-DARGS=run;np-cluster-scaling" -DREPORT=<file>
#         -DLIMIT=28000000 -P expect_cache_resident_below.cmake
execute_process(COMMAND ${CMD} ${ARGS} --json ${REPORT}
                RESULT_VARIABLE exit_code
                OUTPUT_QUIET
                ERROR_VARIABLE err)
if(NOT exit_code EQUAL 0)
    message(FATAL_ERROR
            "expected exit code 0 from '${CMD} ${ARGS}', got '${exit_code}'"
            " (stderr: ${err})")
endif()
file(READ ${REPORT} report)
string(JSON resident GET "${report}" solve_cache bytes_resident)
if(resident GREATER LIMIT)
    message(FATAL_ERROR
            "solve_cache.bytes_resident is ${resident}, above the ${LIMIT}"
            " ceiling")
endif()
message(STATUS "solve_cache.bytes_resident ${resident} <= ${LIMIT}")
