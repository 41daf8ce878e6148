package engine_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"strings"
	"testing"

	"realtor/internal/core"
	"realtor/internal/protocol"
)

// baselineDigests pins, per baseline and scenario cell, the sha256 of
// the run's full recording (every trace event, observer call with its
// complete message and task outcome, one %+v line each, then the final
// statistics). The digests were taken from the baselines' original
// standalone implementations; any change to what a baseline sends, when
// it arms a timer or how it keeps its list shows up here.
var baselineDigests = map[string]string{
	"Push-1/seed=1/loss=0/radius=0":     "7c9f3ca5ec8fe2448a921dedbf5bf53c319f0ff539b3ef4b5bed675b43faae38",
	"Push-1/seed=1/loss=0/radius=2":     "4b199579537b865dfd7a157614cca07e5b44d0a1df36d7edc9b2466aedb2dfa9",
	"Push-1/seed=1/loss=0.2/radius=0":   "7835a41cdbdb3881e2cc8faf66842f5eb4754f6b8e21ac440def5718f955dd5f",
	"Push-1/seed=1/loss=0.2/radius=2":   "ec329564c6eddf60a39f720e8dc8051745c019f698375f77b997c63ee96278e6",
	"Push-1/seed=2/loss=0/radius=0":     "7911683d6ebb2389a1c5730064bf1025df57fcccfc39bada0977e8118c4e4e9d",
	"Push-1/seed=2/loss=0/radius=2":     "c674a1668b8a2b4c1f517400ff6a256fa3d5a949576e00fab250bc025578c52c",
	"Push-1/seed=2/loss=0.2/radius=0":   "3a8fa6cb51595e0c2367bf0dceb9fb2844d9acef6f32b1c67a9cd4286d5ea9b1",
	"Push-1/seed=2/loss=0.2/radius=2":   "71273688b4933ec99b61932153d78f828af6c7d1d6ad41d39097bdef445bc7c0",
	"Push-1/seed=3/loss=0/radius=0":     "667cdb32644e7e8ad58010745056e537155833f46f00e587274dc151755da130",
	"Push-1/seed=3/loss=0/radius=2":     "7fb190428db07009d9d499cec5df4d72bb347f2eb9a93d5f0c4a59b770f30090",
	"Push-1/seed=3/loss=0.2/radius=0":   "c02634414d1d3702c87b62af9affc756316bb5eb28f473abd6f414c72923205f",
	"Push-1/seed=3/loss=0.2/radius=2":   "359692bf2c54523fa87cab8e1f27b168e94a7c7a11616f998112e8aa7b2ce22e",
	"Push-1/seed=4/loss=0/radius=0":     "7f06ad7a3e34ea0455705e53a100fc8b388de4491ea487eab617e81943a12638",
	"Push-1/seed=4/loss=0/radius=2":     "8cef796d7976f62c009be1338160cafbb8154ca61ad26fd3106ddfc8d448ba6f",
	"Push-1/seed=4/loss=0.2/radius=0":   "50ca51401e4aaf2089c52c71c08d008cc3077ba08b724fb76b86cbbfedff70eb",
	"Push-1/seed=4/loss=0.2/radius=2":   "938b584aa2772ad37126ae660935fc8f4b25cce7d868d8623d58bfaf6f5d493e",
	"Push-1/seed=5/loss=0/radius=0":     "dc55cc796f7dfe423aff80254542e6001582ca58fd026406b913a265ae53f524",
	"Push-1/seed=5/loss=0/radius=2":     "18121d3d428a6ccc37be29e4b7def690685fb5bad45c5617f840237b966b60a2",
	"Push-1/seed=5/loss=0.2/radius=0":   "89e1a86abb0d1ae367c6033662dda95a8b1e703b12db4855ac933ba8581e4227",
	"Push-1/seed=5/loss=0.2/radius=2":   "01fe7e4dadc396ca0e32aa2a5a826546afe2fd2fb7e72e9170afd87d14ed5813",
	"Push-1/seed=6/loss=0/radius=0":     "9baba616d5efe33911020ea45a3a6b7ec71c0cea3cd9d015b6eeb8fecaf6e81a",
	"Push-1/seed=6/loss=0/radius=2":     "71f215036b1126926f0014a495af4dd347dd5ec415151b0a4c79dadebdd3854a",
	"Push-1/seed=6/loss=0.2/radius=0":   "67859f07d53edeeb8823d104bd5291fb350ae8480d730b4e012af414d69efbf7",
	"Push-1/seed=6/loss=0.2/radius=2":   "07cc015cbcd813f25ee3de3312a188e40f99b9a861f621fd49368df1520c455f",
	"Push-.9/seed=1/loss=0/radius=0":    "c057744101d5ba19a9381973262c84c77901d6c2e1c1a845616d0b0e11fdad24",
	"Push-.9/seed=1/loss=0/radius=2":    "469cf969591fbcb215f691a251b8d79db2012b1057590211af28fdc270a5cf0a",
	"Push-.9/seed=1/loss=0.2/radius=0":  "74b67623775d0025fa2f10ff779a06e704996936a521d145736a898c0cb1db6d",
	"Push-.9/seed=1/loss=0.2/radius=2":  "f89ad3ac34c1c4dfa57d3f372833ad7b3f77430972067d25889452484a942474",
	"Push-.9/seed=2/loss=0/radius=0":    "748f83db73a7bd23d66818306281941942d1dc32449e949b693e489a413423cf",
	"Push-.9/seed=2/loss=0/radius=2":    "9b71bc0c223e7849da96269856cbf3d2c0251387a75a47df1306ad7885588a0a",
	"Push-.9/seed=2/loss=0.2/radius=0":  "01b25bae07708a2f589925b773a7f49fc0c6fb2cf93173740a0adc8fbd806637",
	"Push-.9/seed=2/loss=0.2/radius=2":  "aff5d7e70355077e421555acfc98fb5af800e8aeb1c009e00bb53308df3dd1b4",
	"Push-.9/seed=3/loss=0/radius=0":    "0ae247fa481fea4c1df749a95eed65201bcd31d11fc4c9ae08724a11f1ac2f8c",
	"Push-.9/seed=3/loss=0/radius=2":    "83ac76bce5b429e243e5fb549dc627b598f112f4bf5f8cb3d4a26e17781b936a",
	"Push-.9/seed=3/loss=0.2/radius=0":  "63522c196c1b8069d1027f0d71f7e1b43fc39225b0ee628b01ab28dd8dd07d62",
	"Push-.9/seed=3/loss=0.2/radius=2":  "fdad9bae2d78d5b9702edd50e44159d223a2275f4e0868cafd28019f69b4d4ce",
	"Push-.9/seed=4/loss=0/radius=0":    "8514d05b6987242be4295fec03fd40e3c9db0bee3a0421f243165f1eaa5e7ab2",
	"Push-.9/seed=4/loss=0/radius=2":    "7900cd87ec6c527d14ee9b2ed914c66bf8d2a99b59bf0a7520207c39670c5995",
	"Push-.9/seed=4/loss=0.2/radius=0":  "b9f673ee302e4c868104e46ee10f0c89a5849ccac71acd183257b5d68044e263",
	"Push-.9/seed=4/loss=0.2/radius=2":  "1426e51e972625f857514a6a254208753a2a6bee3166ba59155dc82124c0062f",
	"Push-.9/seed=5/loss=0/radius=0":    "f0e1ebde496bb799c6974d36e501d2f3d6d2a0a9def52e2648b51689162650e7",
	"Push-.9/seed=5/loss=0/radius=2":    "f0e1ebde496bb799c6974d36e501d2f3d6d2a0a9def52e2648b51689162650e7",
	"Push-.9/seed=5/loss=0.2/radius=0":  "53144a8de02c5a406144c54375ea6d959e74eeca22f6c132126567229af8abba",
	"Push-.9/seed=5/loss=0.2/radius=2":  "53144a8de02c5a406144c54375ea6d959e74eeca22f6c132126567229af8abba",
	"Push-.9/seed=6/loss=0/radius=0":    "998669cb41ed59cb43cae042acec870675da077e9883d6f21746eba7747b16a4",
	"Push-.9/seed=6/loss=0/radius=2":    "1e0dc42dc2302c5718a6bd61909ef17f12a5cfb9cfe4b648c6d33b418e0987ee",
	"Push-.9/seed=6/loss=0.2/radius=0":  "8ea546f268f7f20153dba8b9e02dbcc491e2da83b0e4ec1b082acf5cbd4deb3d",
	"Push-.9/seed=6/loss=0.2/radius=2":  "f8efaefbcc455d98e510720ed3b5b7948281cfc1319258a5f7b41f9f43a294cf",
	"Pull-.9/seed=1/loss=0/radius=0":    "d55a33d3f01aab90dc90fa25129cfb463206e60586356133b4e0988fa6d63857",
	"Pull-.9/seed=1/loss=0/radius=2":    "e51b76fc1857d203bb0babb43ba9e38c3ee69e90fa6ec2e84d94338ed1f1e4b5",
	"Pull-.9/seed=1/loss=0.2/radius=0":  "810e212dbffc708860900dbdd904da22d11f6dc2d558a3589fabd3c6a8e535cd",
	"Pull-.9/seed=1/loss=0.2/radius=2":  "0bf1996f5749306de7395bd4ba5da19582594e52cb00fbb344047b4315f7f01c",
	"Pull-.9/seed=2/loss=0/radius=0":    "b9594ee9dea0c43d12162fa3e96576752e633209c212ca50021c455081cac253",
	"Pull-.9/seed=2/loss=0/radius=2":    "e9cec3643642f79738e50399730b6d3774f4fbf496ad9f54ad60e000d6391e89",
	"Pull-.9/seed=2/loss=0.2/radius=0":  "0a0e5e66739f1b7a259c1627d8dd53ef8a0dced2881c678fa595b5fb762acd4d",
	"Pull-.9/seed=2/loss=0.2/radius=2":  "93abf20275cfba48c0155a61d568b6b57d5ec83be155970b55e386482d1cc7f8",
	"Pull-.9/seed=3/loss=0/radius=0":    "2613e9ddae1739a667e13309ae90b0b11d66160e2662f28495cb0721b065a05a",
	"Pull-.9/seed=3/loss=0/radius=2":    "c5bd55adac157dd333a674a21ce3a5d36f421cdddc97dc97e12361cf407dbef0",
	"Pull-.9/seed=3/loss=0.2/radius=0":  "e46db40ab3b8a5d85d87e4f76899cd1074e204689a928e29a001d2b50d24d3bb",
	"Pull-.9/seed=3/loss=0.2/radius=2":  "35a614c988b2577f0fc211571d7a8e36dcd08a4e0f5986d4d45af0891d4fa630",
	"Pull-.9/seed=4/loss=0/radius=0":    "6b6d646619bf9e9bd969aeaa13da0eebfca4f1364540f03989922c1a4396034b",
	"Pull-.9/seed=4/loss=0/radius=2":    "1dac81beb84a26475b2c284492c7e996b91702095b986ff2b235753190e4cbe8",
	"Pull-.9/seed=4/loss=0.2/radius=0":  "af74149779160f8e13168f72fcd919cbcbc31a5693d09d440c4c53372f248334",
	"Pull-.9/seed=4/loss=0.2/radius=2":  "a4b9a4e789903e224e4058d32a6f7e919b6468ecf226ab9b052799034023b77a",
	"Pull-.9/seed=5/loss=0/radius=0":    "1e6f80acfa455b0dfb71f2819274453084992e5fe2d31e74574fd54e71b0968a",
	"Pull-.9/seed=5/loss=0/radius=2":    "1e6f80acfa455b0dfb71f2819274453084992e5fe2d31e74574fd54e71b0968a",
	"Pull-.9/seed=5/loss=0.2/radius=0":  "6ed138d260ed05f9deec1343bd894c56c5ee1b54ea9102825d0b3bc1e8237ca9",
	"Pull-.9/seed=5/loss=0.2/radius=2":  "6ed138d260ed05f9deec1343bd894c56c5ee1b54ea9102825d0b3bc1e8237ca9",
	"Pull-.9/seed=6/loss=0/radius=0":    "f6e558df3446fdbeaf9c2dc2388d8b444b40d507fcf78df3dec3b1ca265c2275",
	"Pull-.9/seed=6/loss=0/radius=2":    "e8594a771260df2d1fc6fa9f6b5335f74300468ada8cf4255fac6194c10248e2",
	"Pull-.9/seed=6/loss=0.2/radius=0":  "a3a96243ccffb31f07a894bba3be17e2672c841d1ae34f6bd671934626eca6d5",
	"Pull-.9/seed=6/loss=0.2/radius=2":  "6d7480f113a0b73056a7ad8a66e2e0bad1a92516f509c887c0632b91c1691a96",
	"Pull-100/seed=1/loss=0/radius=0":   "c521f1f1329de1ef08490b3e5702bfe45a798db7b81b4bd0c9d014bd53e5b925",
	"Pull-100/seed=1/loss=0/radius=2":   "5079e668f64bb906eb12aa46c377c77ed6b4f5d5c7156621f70a39c4ec3c7dc7",
	"Pull-100/seed=1/loss=0.2/radius=0": "edc9f865d716e6ec3a7cf0343bd5a0a7c158d3ea77ef917ad2b54c91b75ba5b4",
	"Pull-100/seed=1/loss=0.2/radius=2": "8a6063a46d79b066c185fe2ed7778f374d507feb32043100df6ca43bfaf6c177",
	"Pull-100/seed=2/loss=0/radius=0":   "bc790202b52a0a5ed1eeb856e6fa385e9bc43a1005b0e6167b7df8ccf2a1080b",
	"Pull-100/seed=2/loss=0/radius=2":   "019b944ee360847e0cbef09492600d7d6ee856fff8ceb3f48b67a75766e82d95",
	"Pull-100/seed=2/loss=0.2/radius=0": "a7daf6415cf9c750ff0d31f1830500518c562257e1924847267448be373ff672",
	"Pull-100/seed=2/loss=0.2/radius=2": "97447844e695b3fc27ee03a64d14befaf70b3e22c5c7aa31aaec9093c37efc7f",
	"Pull-100/seed=3/loss=0/radius=0":   "55023e197fd1e97a18c052193babdef5ccff4150339dbf8695c369cd4d69e824",
	"Pull-100/seed=3/loss=0/radius=2":   "5f617f9dc84ddb92b2dd48f269ef19e9c15e0d15fa007e151a97c8a0dcd65d99",
	"Pull-100/seed=3/loss=0.2/radius=0": "123bed67bc9e463a3378a274e837bed49903df897e67d35b332914ebc2c5c837",
	"Pull-100/seed=3/loss=0.2/radius=2": "07792b0fa31e4e8fb12230a12533eadd723b1952672071dc479b40507ab68517",
	"Pull-100/seed=4/loss=0/radius=0":   "a33cdde8ef05e85746ba17d66e7b727c599a0c7a58c6ff3857142b75b67beeca",
	"Pull-100/seed=4/loss=0/radius=2":   "4cc88a9467fc26ade04f46e2df84a1b2d4fce1449e503d77d5f0cb4ff71a4f97",
	"Pull-100/seed=4/loss=0.2/radius=0": "a1af23b0e5b563c47277c60621f5b57d1744fc95085b8a5791cd69bbadf0aa3e",
	"Pull-100/seed=4/loss=0.2/radius=2": "01bfeae43f8a7779a39d243083fa3f7ce86b964af6d0ff54b51cde5bf6187c9e",
	"Pull-100/seed=5/loss=0/radius=0":   "b6d3b30b5404fd08ab77faed925f538f4a2c457d489958d11ce1e67cc6304b7c",
	"Pull-100/seed=5/loss=0/radius=2":   "b6d3b30b5404fd08ab77faed925f538f4a2c457d489958d11ce1e67cc6304b7c",
	"Pull-100/seed=5/loss=0.2/radius=0": "02e32b4bc2ff9a2b9844188905fc28d1f01f5fbc93370bcf11572c5a8117daf1",
	"Pull-100/seed=5/loss=0.2/radius=2": "02e32b4bc2ff9a2b9844188905fc28d1f01f5fbc93370bcf11572c5a8117daf1",
	"Pull-100/seed=6/loss=0/radius=0":   "846763a747d7912909110f67068d9658ce43a5a68f6905c2712ea8749c6abf11",
	"Pull-100/seed=6/loss=0/radius=2":   "bfb5593fffce63dc8b3b6b9c0ee43604145295cedeb9b04df0571f077a5e312b",
	"Pull-100/seed=6/loss=0.2/radius=0": "c592c1a2edca1a162f4d5a348c037d77947c6b60fbb5123072fd7a9bb916f26d",
	"Pull-100/seed=6/loss=0.2/radius=2": "291005b7addfa678950e71b7ea25cad90399df9dad40bd39eda70bc42647ab80",
}

// recordingDigest hashes one recording and its final statistics. Each
// record is hashed as %+v rendered it when the digests were taken, while
// protocol.Message still had a Reply field between Grant and View and a
// Reissue field after Level (no baseline ever set either), so the
// digests of the deleted code still apply.
func recordingDigest(log []record, stats string) string {
	h := sha256.New()
	for _, r := range log {
		line := strings.Replace(fmt.Sprintf("%+v\n", r), " View:", " Reply:false View:", 1)
		io.WriteString(h, strings.Replace(line, "} reason:", " Reissue:false} reason:", 1))
	}
	fmt.Fprintf(h, "%s\n", stats)
	return hex.EncodeToString(h.Sum(nil))
}

// TestBaselineDigestsPinned replays the four baselines over seeds 1–6,
// loss {0, 0.2} and flood radius {0, 2} — every scenario holding a
// kill+revive and link churn — at 1 and 2 shards, and demands each
// recording hash to its pinned digest.
func TestBaselineDigestsPinned(t *testing.T) {
	protos := []struct {
		name string
		mk   func(protocol.Config) protocol.Discovery
	}{
		{"Push-1", func(c protocol.Config) protocol.Discovery { return core.NewPurePush(c) }},
		{"Push-.9", func(c protocol.Config) protocol.Discovery { return core.NewAdaptivePush(c) }},
		{"Pull-.9", func(c protocol.Config) protocol.Discovery { return core.NewPurePull(c) }},
		{"Pull-100", func(c protocol.Config) protocol.Discovery { return core.NewAdaptivePull(c) }},
	}
	for _, p := range protos {
		for seed := int64(1); seed <= 6; seed++ {
			for _, loss := range []float64{0, 0.2} {
				for _, radius := range []int{0, 2} {
					for _, shards := range []int{1, 2} {
						s := equivScenario(seed, loss, radius)
						s.Discovery = ""
						cfg := s.ProtocolConfig()
						mk := p.mk
						log, stats, _ := runRecorded(s, s.Graph(), func() protocol.Discovery { return mk(cfg) }, shards)
						key := fmt.Sprintf("%s/seed=%d/loss=%v/radius=%d", p.name, seed, loss, radius)
						if got, want := recordingDigest(log, stats), baselineDigests[key]; got != want {
							t.Errorf("%s/shards=%d: recording digest %s, pinned %s", key, shards, got, want)
						}
					}
				}
			}
		}
	}
}
