# CTest helper: run ${CMD} with ${ARGS} (a ;-list ending in "--json -"),
# then again with ${FLAG} appended, and require both runs to exit 0 with
# different reports. Pins that a flag actually reaches the solver rather
# than being parsed and dropped.
#
#   cmake -DCMD=<exe> "-DARGS=run;np-baseline;--json;-" -DFLAG=--gauss-seidel
#         -P expect_flag_changes_report.cmake
foreach(with_flag OFF ON)
    set(args ${ARGS})
    if(with_flag)
        list(APPEND args ${FLAG})
    endif()
    execute_process(COMMAND ${CMD} ${args}
                    RESULT_VARIABLE exit_code
                    OUTPUT_VARIABLE report_${with_flag}
                    ERROR_VARIABLE err)
    if(NOT exit_code EQUAL 0)
        message(FATAL_ERROR
                "expected exit code 0 from '${CMD} ${args}', got"
                " '${exit_code}' (stderr: ${err})")
    endif()
endforeach()
if(report_ON STREQUAL report_OFF)
    message(FATAL_ERROR
            "'${FLAG}' did not change the report of '${CMD} ${ARGS}'")
endif()
