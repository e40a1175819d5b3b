include Spp_util.Json
