# CTest helper: export every compiled preset and batch with
# `${CMD} export --all --dir ${OUT}` and require the export to equal the
# shipped catalog ${CATALOG}/*.json byte for byte, file for file — a
# preset change without `socbuf_cli export --all --dir scenarios/`
# cannot land silently.
#
#   cmake -DCMD=<socbuf_cli> -DCATALOG=<scenarios dir> -DOUT=<scratch dir>
#         -P expect_catalog_in_sync.cmake
file(REMOVE_RECURSE ${OUT})
file(MAKE_DIRECTORY ${OUT})
execute_process(COMMAND ${CMD} export --all --dir ${OUT}
                RESULT_VARIABLE exit_code
                OUTPUT_QUIET
                ERROR_VARIABLE err)
if(NOT exit_code EQUAL 0)
    message(FATAL_ERROR "'${CMD} export --all' exited '${exit_code}'"
            " (stderr: ${err})")
endif()
file(GLOB exported RELATIVE ${OUT} ${OUT}/*.json)
file(GLOB shipped RELATIVE ${CATALOG} ${CATALOG}/*.json)
list(SORT exported)
list(SORT shipped)
if(NOT exported STREQUAL shipped)
    message(FATAL_ERROR "export --all wrote [${exported}] but ${CATALOG}"
            " holds [${shipped}]")
endif()
foreach(name ${shipped})
    file(READ ${CATALOG}/${name} want)
    file(READ ${OUT}/${name} got)
    if(NOT got STREQUAL want)
        message(FATAL_ERROR "${CATALOG}/${name} is out of sync with the"
                " compiled preset; regenerate it with"
                " `socbuf_cli export --all --dir scenarios/`")
    endif()
endforeach()
