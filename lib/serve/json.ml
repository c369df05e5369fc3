include Vdram_json.Json (* the program's JSON, named Vdram_serve.Json *)
