(* The codec is Spp_util.Json; this alias stays only because the
   frozen benchmark harness in perfbench/ names Spp_server.Json. *)
include Spp_util.Json
